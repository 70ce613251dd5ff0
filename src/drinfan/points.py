"""Points of the weight cone C_d = {0 <= s_1 <= ... <= s_{d-1}}.

A ClassPoint stores a point of C_d whose coordinates may be irrational
r-th roots of rationals: ``values[i] = s_{i+1} ** pow_exponent`` exactly.
Points coming from rank-r lattices carry pow_exponent = r (the stored
values are the negated valuations); fully rational points carry
pow_exponent = 1.  Comparisons of the two-term form q^h s_j <=> s_i are
decided exactly on the stored powers (x -> x^rho preserves order on
nonnegative reals).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _check_in_cone(values) -> None:
    """Raise ValueError unless values are nonnegative and weakly
    increasing, i.e. a point of C_d: one comparison per value."""
    prev = 0
    for v in values:
        if v < prev:
            if any(x < 0 for x in values):
                raise ValueError("stored powers must be nonnegative")
            raise ValueError("coordinates must be weakly increasing")
        prev = v


@dataclass(frozen=True)
class ClassPoint:
    d: int
    values: tuple[Fraction, ...]
    pow_exponent: int = 1

    def __post_init__(self):
        if len(self.values) != self.d - 1:
            raise ValueError("need d-1 coordinates for a point of C_d")
        if self.pow_exponent < 1:
            raise ValueError("pow_exponent must be >= 1")
        vals = tuple(v if type(v) is Fraction else Fraction(v)
                     for v in self.values)
        _check_in_cone(vals)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def from_coords(coords, d: int | None = None) -> "ClassPoint":
        coords = tuple(c if type(c) is Fraction else Fraction(c)
                       for c in coords)
        return ClassPoint(d or len(coords) + 1, coords, 1)

    def stratum(self) -> int:
        """1-based index of the first nonzero coordinate; d if all zero."""
        for i, v in enumerate(self.values):
            if v != 0:
                return i + 1
        return self.d

    def power_values(self, rho: int) -> tuple[Fraction, ...]:
        """(s_i ** rho) for all i, exactly, when representable."""
        if rho == self.pow_exponent:
            return self.values
        if self.pow_exponent == 1:
            return tuple(v ** rho for v in self.values)
        if rho % self.pow_exponent == 0:
            k = rho // self.pow_exponent
            return tuple(v ** k for v in self.values)
        raise ValueError(
            f"cannot express power {rho} from stored power {self.pow_exponent}")

    def coords_if_rational(self) -> tuple[Fraction, ...]:
        return self.power_values(1)

    def sign_two_term(self, q: int, h: int, j: int, i: int) -> int:
        """Sign of q^h s_j - s_i (1-based coordinate indices)."""
        rho = self.pow_exponent
        lhs = Fraction(q) ** (h * rho) * self.values[j - 1]
        rhs = self.values[i - 1]
        return (lhs > rhs) - (lhs < rhs)
