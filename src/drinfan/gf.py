"""Small finite fields F_q and the polynomial ring F_q[T].

Fields are constructed at runtime for any prime power q <= 16.  Elements are
plain Python ints in ``range(q)``; for extension fields the int encodes the
coefficient vector of the element over the prime field in base p.
Multiplication and inversion go through discrete log/antilog tables built
from a primitive element found by search; addition and negation go through
q x q and q-entry tables built digit-wise.

Polynomials are immutable coefficient tuples (lowest degree first) tagged
with their field.  The absolute value used throughout the package is
``|a| = q ** deg(a)`` with ``|0| = 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterator, Sequence

__all__ = ["GF", "Poly", "RatFunc", "check_q"]


@lru_cache(maxsize=128, typed=True)
def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q == p**e and p prime, by trial division up to sqrt(q);
    ValueError if q is not a prime power.  Results are memoized; an
    exception is not, so an invalid q raises on every call."""
    if q < 2:
        raise ValueError("q must be at least 2")
    p = next((p for p in range(2, isqrt(q) + 1) if q % p == 0), q)
    m, e = q, 0
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return p, e


def check_q(q: int) -> None:
    """Raise ValueError unless q is a prime power >= 2, the size of a finite
    field.  Any prime power passes (17, 25, ...), not only the q <= 16 that
    GF builds."""
    _prime_power(q)


# Irreducible monic polynomials over F_p used as modulus for F_{p^e},
# encoded as coefficient tuples (constant first, leading coefficient last).
_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
}


class GF:
    """The finite field with q elements, q = p^e <= 16.

    Elements are ints in range(q).  For e > 1 the int n represents the
    residue sum(digit_i * x^i) where (digit_i) are the base-p digits of n.
    """

    def __init__(self, q: int):
        p, e = _prime_power(q)
        if q > 16:
            raise ValueError(f"q = {q} exceeds the supported bound of 16")
        self.q = q
        self.p = p
        self.e = e
        self._build_tables()

    # -- construction ----------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        """Multiply without tables (used only while building them)."""
        p, e = self.p, self.e
        if e == 1:
            return (a * b) % p
        da = self._digits(a)
        db = self._digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return self._reduce(prod)

    def _reduce(self, prod: list[int]) -> int:
        """The element sum(prod[i] * x^i), reduced modulo the defining
        polynomial; prod holds base-p digits and is overwritten."""
        p, e = self.p, self.e
        if e == 1:
            return prod[0]
        mod = _MODULI[(p, e)]
        # reduce modulo the defining polynomial (monic of degree e)
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
        return self._undigits(prod[:e])

    def _digits(self, n: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(n % p)
            n //= p
        return out

    def _undigits(self, ds: Sequence[int]) -> int:
        n = 0
        for d in reversed(ds):
            n = n * self.p + d
        return n

    def _build_tables(self) -> None:
        q = self.q
        # find a primitive element by search
        for g in range(1, q):
            seen = set()
            x = 1
            for _ in range(q - 1):
                seen.add(x)
                x = self._mul_raw(x, g)
            if len(seen) == q - 1:
                self.generator = g
                break
        else:  # pragma: no cover - every field has a primitive element
            raise AssertionError("no primitive element found")
        self._exp = [0] * (2 * (q - 1))
        self._log = [0] * q
        x = 1
        for i in range(q - 1):
            self._exp[i] = x
            self._exp[i + q - 1] = x
            self._log[x] = i
            x = self._mul_raw(x, self.generator)
        p, e = self.p, self.e
        digits = [self._digits(a) for a in range(q)]
        self.add_table = tuple(
            tuple(self._undigits([(x + y) % p for x, y in zip(da, db)])
                  for db in digits)
            for da in digits)
        self.neg_table = tuple(self._undigits([(-x) % p for x in da])
                               for da in digits)
        # Per-digit Kronecker packing (LaurentSeries.__mul__): the e base-p
        # digits of each element, and the element that 2e-1 digits of a
        # product, as coefficients of x^0 .. x^(2e-2), reduce to.
        self.digit_bytes = tuple(bytes(da) for da in digits)
        self.fold = {bytes(ds): self._reduce(list(ds))
                     for ds in itertools.product(range(p), repeat=2 * e - 1)}

    # -- arithmetic -------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("0 ** negative in GF(q)")
            return 0 if n else 1
        return self._exp[(self._log[a] * n) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("GF", self.q))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def _gf_cached(q: int) -> GF:
    return GF(q)


def gf(q: int) -> GF:
    """Shared, cached field instance."""
    return _gf_cached(q)


@dataclass(frozen=True)
class Poly:
    """Polynomial in F_q[T]; coeffs are lowest-degree-first, normalized."""

    field: GF
    coeffs: tuple[int, ...]

    @staticmethod
    def make(field: GF, coeffs: Sequence[int]) -> "Poly":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(field, tuple(cs))

    @staticmethod
    def zero(field: GF) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: GF) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def T(field: GF) -> "Poly":
        return Poly(field, (0, 1))

    @staticmethod
    def constant(field: GF, c: int) -> "Poly":
        return Poly.make(field, (c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def absolute_value(self) -> int:
        """|a| = q ** deg a, with |0| = 0."""
        if self.is_zero():
            return 0
        return self.field.q ** self.degree

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.make(F, [F.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, tuple(F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        if self.is_zero() or other.is_zero():
            return Poly.zero(F)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly.make(F, out)

    def scale(self, c: int) -> "Poly":
        F = self.field
        return Poly.make(F, [F.mul(c, a) for a in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(F), self
        quot = [0] * (dq + 1)
        lead_inv = F.inv(other.coeffs[-1])
        for i in range(dq, -1, -1):
            c = F.mul(rem[i + other.degree], lead_inv)
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = F.sub(rem[i + j], F.mul(c, b))
        return Poly.make(F, quot), Poly.make(F, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(f"{c}")
                elif i == 1:
                    terms.append(f"{c}*T" if c != 1 else "T")
                else:
                    terms.append(f"{c}*T^{i}" if c != 1 else f"T^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def polys_of_degree_at_most(field: GF, d: int) -> Iterator[Poly]:
    """All polynomials of degree <= d (including 0); q^(d+1) of them."""
    q = field.q
    for n in range(q ** (d + 1)):
        cs = []
        m = n
        for _ in range(d + 1):
            cs.append(m % q)
            m //= q
        yield Poly.make(field, cs)


@dataclass(frozen=True)
class RatFunc:
    """Rational function in F_q(T), normalized with monic denominator."""

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return RatFunc(num, Poly.one(num.field))
        g = num.gcd(den)
        num, den = num // g, den // g
        lead_inv = num.field.inv(den.coeffs[-1])
        return RatFunc(num.scale(lead_inv), den.scale(lead_inv))

    @staticmethod
    def of(p: Poly) -> "RatFunc":
        return RatFunc.make(p, Poly.one(p.field))

    @staticmethod
    def zero(field: GF) -> "RatFunc":
        return RatFunc.of(Poly.zero(field))

    @staticmethod
    def one(field: GF) -> "RatFunc":
        return RatFunc.of(Poly.one(field))

    @property
    def field(self) -> GF:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num.coeffs)

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.make(self.num * other.den, self.den * other.num)

    def valuation_at_poly(self, pi: Poly) -> int | None:
        """pi-adic valuation for an irreducible pi; None for the zero function."""
        if self.is_zero():
            return None
        v = 0
        n = self.num
        while (n % pi).is_zero():
            n = n // pi
            v += 1
        d = self.den
        while (d % pi).is_zero():
            d = d // pi
            v -= 1
        return v

    def absolute_value(self) -> Fraction:
        """|f| = q^(deg num - deg den), with |0| = 0."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.field.q) ** (self.num.degree - self.den.degree)

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r} / {self.den!r})"
