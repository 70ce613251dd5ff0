"""The field F_q(T) for the tests: rational functions, and linear algebra
over their field as a reference.

The library works over the ring F_q[T] itself (``gf.Poly``, ``linalg.det``,
``norms``); its ``rref``, ``solve`` and ``mat_inv`` are over Q only.  The
tests that need the fraction field (lattice spans and base changes in
``test_norms``, lattice classes in ``test_bruhat_tits``) use this module:
``RatFunc``, and ``field_rref`` (textbook Gauss-Jordan over the field of
the entries, also the rational oracle of ``test_linalg``) with
``field_solve`` and ``field_mat_inv`` on top of it, called as the library
calls its own.
"""

from dataclasses import dataclass
from fractions import Fraction

from drinfan.gf import GF, Poly


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
        g, b = num, den  # Euclid: g becomes a gcd, up to a constant
        while b:
            g, b = b, g % b
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


def field_rref(rows):
    """Reduced row echelon form and pivot columns, by Gauss-Jordan over the
    field of the entries, each pivot row divided by its pivot before it
    clears its column."""
    m = [list(row) for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def field_solve(rows, rhs):
    """``linalg.solve`` over F_q(T): one solution of A x = b (free unknowns
    0), or None if inconsistent; rhs is a vector, or a matrix given by its
    rows, one per equation, and then the result is a tuple of rows."""
    n = len(rows[0]) if rows else 0
    matrix = bool(rhs) and isinstance(rhs[0], (list, tuple))
    aug = [list(r) + (list(b) if matrix else [b]) for r, b in zip(rows, rhs)]
    if not aug:
        return ()
    red, pivots = field_rref(aug)
    if pivots and pivots[-1] >= n:
        return None
    x = [[RatFunc.zero(aug[0][0].field)] * (len(aug[0]) - n)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n:]
    if matrix:
        return tuple(tuple(row) for row in x)
    return tuple(row[0] for row in x)


def field_mat_inv(a):
    """``linalg.mat_inv`` over F_q(T); ValueError if a is singular."""
    n = len(a)
    if n == 0:
        return []
    field = a[0][0].field
    zero, one = RatFunc.zero(field), RatFunc.one(field)
    red, pivots = field_rref([list(row) + [one if i == j else zero
                                           for j in range(n)]
                              for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]
