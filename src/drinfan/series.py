"""Truncated Laurent series over F_q and twisted additive series.

A LaurentSeries stores a sparse map exponent -> coefficient together with an
absolute precision: coefficients at exponents below ``prec`` are exact, and
nothing is claimed beyond.  ``prec is None`` means the series is exact (a
Laurent polynomial).  Operations propagate precision pessimistically and
raise PrecisionError instead of silently truncating when a requested
coefficient or valuation is not determined.

An AdditiveSeries is a twisted polynomial sum_i c_i * tau^i where tau is the
q-power map z -> z^q; composition follows the skew rule
(a * b)_k = sum_{i+j=k} a_i * b_j^{q^i}.

The product of two Laurent series is exact for every field q <= 16 and uses
Kronecker substitution (von zur Gathen & Gerhard, Modern Computer Algebra,
ch. 8).  Each exponent of a factor's span gets 2e-1 slots of ``width`` bytes
in one little-endian integer, for q = p^e; the e base-p digits of its
coefficient fill the first e slots.  One integer product then holds every
coefficient of the product, as a polynomial of degree < 2e-1 in the
generator x of F_q over F_p, without carries between slots: a slot of the
product sums at most min(terms) * e products of two digits, each at most
(p-1)^2, and ``width`` is the fewest whole bytes that hold that sum.  The
product integer is serialised once with ``int.to_bytes``; byte-wise
translation tables reduce every slot mod p, and for e > 1 a table lookup
reduces each group of 2e-1 digits modulo the defining polynomial.  Apart
from the integer multiplication itself, the cost is linear in the number of
terms and in the byte size of the product, and only the slots below the
product's precision are unpacked.  A factor with one term c t^s is not
packed: the product is the other factor with its exponents shifted by s and
its coefficients scaled by c (a table lookup, skipped for c = 1).

Frobenius acts on exponents only: (sum c_e t^e)^(q^k) = sum c_e t^(e q^k),
because raising to a power of p is additive in characteristic p and
c^q = c for every c in F_q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from .gf import GF

__all__ = ["PrecisionError", "LaurentSeries", "AdditiveSeries",
           "lower_hull", "root_valuations"]


class PrecisionError(ArithmeticError):
    """Raised when a result is not determined at the available precision."""


_new = object.__new__


def _min_prec(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@lru_cache(maxsize=None)
def _byte_residues(p: int, k: int) -> bytes:
    """Translation table b -> (b * 256^k) mod p for byte k of a slot."""
    return bytes((b << 8 * k) % p for b in range(256))


def _slot_residues(data: bytes, width: int, p: int) -> bytes:
    """Each little-endian ``width``-byte slot of data mod p, one byte each."""
    if width == 1:
        return data.translate(_byte_residues(p, 0))
    # Reduce byte k of every slot to (b * 256^k) mod p and add the partial
    # residues of all k as packed bytes of one integer: a slot's sum is at
    # most width * (p-1) < 256 (slots never reach 21 bytes), so no carry
    # crosses into the next slot.
    total = 0
    for k in range(width):
        part = data[k::width].translate(_byte_residues(p, k))
        total += int.from_bytes(part, "little")
    return total.to_bytes(len(data) // width, "little").translate(
        _byte_residues(p, 0))


class LaurentSeries:
    """Sparse Laurent series over a small finite field with precision."""

    __slots__ = ("field", "coeffs", "prec")

    # Invariant of every instance: every coefficient in ``coeffs`` is a
    # nonzero element of range(q), and no exponent reaches ``prec``.
    # __init__ establishes it by rejecting a coefficient outside range(q)
    # (ValueError) and filtering the rest; a result that holds it by
    # construction (a product, a Frobenius power, a negation, a scaling or
    # shift by a nonzero constant, the series 1, the quotients by a unit
    # inside ``inverse``) is built by _trusted, which checks nothing.  A
    # series is never changed after construction, so results may share it.
    def __init__(self, field: GF, coeffs: dict[int, int], prec: int | None):
        if coeffs and not (0 <= min(coeffs.values())
                           and max(coeffs.values()) < field.q):
            raise ValueError(f"coefficients must lie in range({field.q}), "
                             f"got {sorted(set(coeffs.values()))}")
        if prec is not None:
            coeffs = {e: c for e, c in coeffs.items() if c and e < prec}
        else:
            coeffs = {e: c for e, c in coeffs.items() if c}
        self.field = field
        self.coeffs = coeffs
        self.prec = prec

    @staticmethod
    def _trusted(field: GF, coeffs: dict[int, int],
                 prec: int | None) -> "LaurentSeries":
        """A series from coefficients that already hold the invariant."""
        s = _new(LaurentSeries)
        s.field = field
        s.coeffs = coeffs
        s.prec = prec
        return s

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: GF, prec: int | None = None) -> "LaurentSeries":
        return LaurentSeries(field, {}, prec)

    @staticmethod
    def one(field: GF, prec: int | None = None) -> "LaurentSeries":
        return LaurentSeries._trusted(
            field, {0: 1} if prec is None or prec > 0 else {}, prec)

    @staticmethod
    def t_power(field: GF, e: int, c: int = 1,
                prec: int | None = None) -> "LaurentSeries":
        return LaurentSeries(field, {e: c}, prec)

    # -- structure ---------------------------------------------------------

    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    def low_exponent(self) -> int | None:
        """Smallest exponent that could carry a nonzero coefficient."""
        if self.coeffs:
            return min(self.coeffs)
        return self.prec  # None (exact zero) or the precision bound

    def valuation(self) -> int | None:
        """t-adic valuation; None for the exact zero series."""
        if self.coeffs:
            return min(self.coeffs)
        if self.prec is None:
            return None
        raise PrecisionError(
            f"series vanishes to precision {self.prec}; valuation unknown")

    def coeff(self, e: int) -> int:
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(f"coefficient at t^{e} beyond precision {self.prec}")
        return self.coeffs.get(e, 0)

    def truncate(self, prec: int | None) -> "LaurentSeries":
        new_prec = _min_prec(self.prec, prec)
        if new_prec == self.prec:
            return self
        return LaurentSeries._trusted(
            self.field, {e: c for e, c in self.coeffs.items() if e < new_prec},
            new_prec)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        prec = _min_prec(self.prec, other.prec)
        # the larger operand is copied and the smaller one added into it
        big, small = self.truncate(prec), other.truncate(prec)
        if len(big.coeffs) < len(small.coeffs):
            big, small = small, big
        if not small.coeffs:
            return big
        add = self.field.add_table
        out = dict(big.coeffs)
        for e, c in small.coeffs.items():
            s = add[out.get(e, 0)][c]
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentSeries._trusted(self.field, out, prec)

    def __neg__(self) -> "LaurentSeries":
        F = self.field
        if F.p == 2:
            return self  # -c = c in characteristic 2
        neg = F.neg_table
        return LaurentSeries._trusted(
            F, {e: neg[c] for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c: int) -> "LaurentSeries":
        return self._shift(0, c, self.prec)

    def _shift(self, s: int, c: int, prec: int | None) -> "LaurentSeries":
        """c t^s times this series, the terms below ``prec`` kept; ``prec``
        is at most self.prec + s, the precision of the product."""
        F = self.field
        if c == 0:
            return LaurentSeries.zero(F, prec)
        if c == 1 and s == 0 and prec == self.prec:
            return self
        items = self.coeffs.items()
        if prec is not None and (self.prec is None or self.prec + s > prec):
            items = [(e, x) for e, x in items if e + s < prec]
        if c == 1:
            out = {e + s: x for e, x in items}
        else:
            row = F.mul_table[c]
            out = {e + s: row[x] for e, x in items}
        return LaurentSeries._trusted(F, out, prec)

    def _mul_prec(self, other: "LaurentSeries") -> int | None:
        """min(p_a + low(b), p_b + low(a)) over the terms that are finite."""
        pa, pb = self.prec, other.prec
        if pa is not None:
            lb = other.low_exponent()
            pa = None if lb is None else pa + lb
        if pb is not None:
            la = self.low_exponent()
            pb = None if la is None else pb + la
        return _min_prec(pa, pb)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        F = self.field
        prec = self._mul_prec(other)
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(F, prec)
        if len(self.coeffs) == 1:
            (s, c), = self.coeffs.items()
            return other._shift(s, c, prec)
        if len(other.coeffs) == 1:
            (s, c), = other.coeffs.items()
            return self._shift(s, c, prec)
        # Kronecker substitution; the module docstring explains the layout.
        p, e = F.p, F.e
        stride = 2 * e - 1
        base_a, base_b = min(self.coeffs), min(other.coeffs)
        na = max(self.coeffs) - base_a + 1
        nb = max(other.coeffs) - base_b + 1
        bound = min(len(self.coeffs), len(other.coeffs)) * e * (p - 1) ** 2
        width = (bound.bit_length() + 7) // 8
        P = self._pack(base_a, na, width) * other._pack(base_b, nb, width)
        base = base_a + base_b
        n = na + nb - 1
        data = P.to_bytes(n * stride * width, "little")
        if prec is not None and prec - base < n:
            n = max(prec - base, 0)
            data = data[:n * stride * width]
        coeffs = _slot_residues(data, width, p)
        if e > 1:
            # the 2e-1 digits of each exponent -> its element of F_q
            fold = F.fold
            coeffs = bytes([fold[coeffs[i:i + stride]]
                            for i in range(0, len(coeffs), stride)])
        # exponents of the nonzero coefficients, paired with those coefficients
        exps = compress(range(base, base + n), coeffs)
        return LaurentSeries._trusted(
            F, dict(zip(exps, coeffs.replace(b"\0", b""))), prec)

    def _pack(self, base: int, span: int, width: int) -> int:
        """The Kronecker integer of this series: 2e-1 slots of ``width``
        bytes per exponent from ``base`` over ``span`` exponents."""
        F = self.field
        e = F.e
        stride = 2 * e - 1
        slots = bytearray(span * stride)
        if e == 1:
            p = F.p
            for x, c in self.coeffs.items():
                slots[x - base] = c % p  # a digit, as the slot bound assumes
        else:
            digits = F.digit_bytes
            for x, c in self.coeffs.items():
                i = (x - base) * stride
                slots[i:i + e] = digits[c]
        if width > 1:
            wide = bytearray(len(slots) * width)
            wide[::width] = slots
            slots = wide
        return int.from_bytes(slots, "little")

    def frobenius_power(self, k: int) -> "LaurentSeries":
        """Raise to the q^k-th power (exact in characteristic p).

        (sum c_e t^e)^(q^k) = sum c_e^(q^k) t^(e q^k), since raising to a
        power of p is additive in characteristic p; and c^q = c for every c
        in F_q (the multiplicative group has order q - 1), so only the
        exponents change.
        """
        if k == 0:
            return self
        qk = self.field.q ** k
        prec = None if self.prec is None else self.prec * qk
        return LaurentSeries._trusted(
            self.field, {e * qk: c for e, c in self.coeffs.items()}, prec)

    def pow_int(self, n: int) -> "LaurentSeries":
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        if n == 0:
            return LaurentSeries.one(self.field)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def inverse(self, prec: int | None = None) -> "LaurentSeries":
        """Multiplicative inverse, to requested absolute precision.

        The series must have a determined nonzero lowest coefficient.  For an
        inexact input the achievable precision is p - 2v (error delta/a^2);
        requesting more raises PrecisionError.

        Newton's iteration x <- 2x - u x^2 on the normalized series u doubles
        the number of known terms of u^{-1} per round, and only u mod t^need
        can reach x mod t^need, so the terms of u from t^need on are never
        read and each round works modulo t^known.
        """
        if not self.coeffs:
            raise ZeroDivisionError("inverse of (numerically) zero series")
        F = self.field
        v = min(self.coeffs)
        best = None if self.prec is None else self.prec - 2 * v
        if len(self.coeffs) == 1 and self.prec is None:
            # exact monomial: exact inverse
            inv = LaurentSeries._trusted(F, {-v: F.inv(self.coeffs[v])}, None)
            return inv if prec is None else inv.truncate(prec)
        if prec is None:
            if best is None:
                raise ValueError("requested exact inverse of a series; pass prec")
            prec = best
        if best is not None and prec > best:
            raise PrecisionError(
                f"inverse precision {prec} unreachable (best {best})")
        c0 = self.coeffs[v]
        # u = self / (c0 t^v) is 1 + (positive valuation); invert by Newton on
        # exact representatives (the iteration self-corrects, so the generic
        # pessimistic precision propagation does not apply inside the loop).
        need = prec + v  # precision of u^{-1} needed
        u = LaurentSeries._trusted(F, {e - v: F.div(c, c0)
                                       for e, c in self.coeffs.items()
                                       if e - v < need}, None)
        x = LaurentSeries.one(F)
        known = 1
        two = 2 % F.p
        while known < need:
            known = min(2 * known, need)
            step = x.scale(two) - (u.truncate(known) * x) * x
            x = LaurentSeries._trusted(F, step.coeffs, None)
        return LaurentSeries(F, {e - v: F.div(c, c0)
                                 for e, c in x.coeffs.items()},
                             prec)

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LaurentSeries) and self.field == other.field
                and self.coeffs == other.coeffs and self.prec == other.prec)

    def __hash__(self) -> int:
        return hash((self.field, tuple(sorted(self.coeffs.items())), self.prec))

    def __repr__(self) -> str:
        terms = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.prec is None else f" + O(t^{self.prec})"
        return f"LaurentSeries({body}{tail})"


class AdditiveSeries:
    """Twisted polynomial sum_i c_i tau^i over Laurent series coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs: dict[int, LaurentSeries]):
        self.field = field
        self.coeffs = {i: c for i, c in coeffs.items()
                       if not (c.prec is None and c.is_zero_to_precision())}

    @staticmethod
    def identity(field: GF) -> "AdditiveSeries":
        return AdditiveSeries(field, {0: LaurentSeries.one(field)})

    @staticmethod
    def zero(field: GF) -> "AdditiveSeries":
        return AdditiveSeries(field, {})

    def tau_degree(self) -> int:
        """Largest tau index with a (numerically) nonzero coefficient."""
        nz = [i for i, c in self.coeffs.items() if not c.is_zero_to_precision()]
        return max(nz) if nz else -1

    def coeff(self, i: int) -> LaurentSeries:
        return self.coeffs.get(i, LaurentSeries.zero(self.field))

    def z_degree(self) -> int:
        """Degree in z, i.e. q^(tau degree)."""
        return self.field.q ** self.tau_degree()

    def __add__(self, other: "AdditiveSeries") -> "AdditiveSeries":
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out[i] + c if i in out else c
        return AdditiveSeries(self.field, out)

    def __neg__(self) -> "AdditiveSeries":
        return AdditiveSeries(self.field, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "AdditiveSeries") -> "AdditiveSeries":
        return self + (-other)

    def scale(self, s: LaurentSeries) -> "AdditiveSeries":
        return AdditiveSeries(self.field, {i: s * c for i, c in self.coeffs.items()})

    def compose(self, other: "AdditiveSeries") -> "AdditiveSeries":
        """self after other: (a . b)_k = sum_{i+j=k} a_i b_j^{q^i}."""
        out: dict[int, LaurentSeries] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                k = i + j
                term = a * b.frobenius_power(i)
                out[k] = out[k] + term if k in out else term
        return AdditiveSeries(self.field, out)

    def frobenius_twist(self) -> "AdditiveSeries":
        """Compose with tau on the left: tau . f."""
        return AdditiveSeries(self.field,
                              {i + 1: c.frobenius_power(1)
                               for i, c in self.coeffs.items()})

    def apply(self, s: LaurentSeries) -> LaurentSeries:
        """Evaluate the additive polynomial at a Laurent series argument."""
        out = LaurentSeries.zero(self.field)
        for i, c in self.coeffs.items():
            out = out + c * s.frobenius_power(i)
        return out

    def newton_points(self) -> list[tuple[int, int | None, int | None]]:
        """(z-exponent, valuation or None, precision bound) per tau index.

        valuation None means the coefficient vanishes to its precision; the
        third entry is the precision bound (None for exact coefficients).
        """
        q = self.field.q
        pts = []
        for i in sorted(self.coeffs):
            c = self.coeffs[i]
            if c.is_zero_to_precision():
                if c.prec is not None:
                    pts.append((q ** i, None, c.prec))
            else:
                pts.append((q ** i, min(c.coeffs), c.prec))
        return pts

    def __repr__(self) -> str:
        parts = [f"({c!r})*tau^{i}" for i, c in sorted(self.coeffs.items())]
        return "AdditiveSeries(" + (" + ".join(parts) if parts else "0") + ")"


def lower_hull(points: Sequence[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Vertices of the lower convex hull of points with distinct x-coords."""
    pts = sorted((int(x), Fraction(y)) for x, y in points)
    hull: list[tuple[int, Fraction]] = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop if hull[-1] lies on or above segment hull[-2] -> p
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def root_valuations(points: Iterable[tuple[int, int | None, int | None]]
                    ) -> list[tuple[Fraction, int]]:
    """Nonzero-root valuations with multiplicities from Newton polygon data.

    ``points`` are (z-exponent, valuation-or-None, precision) triples as
    produced by AdditiveSeries.newton_points.  Coefficients that vanish to
    their precision are skipped; if one of them could dip below the hull the
    data is inconclusive and PrecisionError is raised.
    """
    known = [(x, Fraction(v)) for x, v, _ in points if v is not None]
    if len(known) < 2:
        return []
    hull = lower_hull(known)

    def hull_height(x: int) -> Fraction | None:
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            if x1 <= x <= x2:
                return y1 + (y2 - y1) * Fraction(x - x1, x2 - x1)
        return None

    for x, v, prec in points:
        if v is None:
            h = hull_height(x)
            if h is not None and prec is not None and Fraction(prec) <= h:
                raise PrecisionError(
                    f"coefficient at z^{x} vanishes to precision {prec}, "
                    f"which does not clear the hull height {h}")
    out: list[tuple[Fraction, int]] = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        out.append((-slope, x2 - x1))
    return out
