"""Lattice classes over a local ring, chains, and apartment cones.

Lattices in E^n (E = F_q(T) completed at an irreducible pi, by default
pi = T) are given by basis matrices over F_q(T); only pi-adic valuations
matter.  A LatticeClass is a lattice up to pi-power scaling.  The module
provides:

* inclusion and chain tests for finite sets of classes (a set is a simplex
  of the affine building iff representatives can be arranged into a
  descending chain L^0 > L^1 > ... > L^m > pi L^0),
* for sets of diagonal classes, the weight cone sigma(S) generated by the
  vectors (q^{a_i}) of the representatives, with an independently built
  two-term inequality description that is asserted against the generator
  description, and its rank-r variant where every comparison exponent is
  scaled by r,
* the standard simplex cone {s_1 <= ... <= s_n <= q s_1} and membership
  helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .cones import Cone
from .gf import GF, Poly, RatFunc, check_q, gf
from .linalg import mat_inv, mat_mul

__all__ = ["LatticeClass", "diagonal_class", "chain_test", "simplex_cone",
           "standard_simplex_cone", "canonical_exponents",
           "intersection_of_diagonal_sets", "lattice_norm_weights"]


@dataclass(frozen=True)
class LatticeClass:
    """A full lattice in E^n modulo pi-power scaling, given by a basis
    matrix (columns are basis vectors) over F_q(T)."""

    matrix: tuple[tuple[RatFunc, ...], ...]
    pi: Poly

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def field(self) -> GF:
        return self.pi.field

    def scaled(self, k: int) -> "LatticeClass":
        """Representative pi^k L (same class)."""
        f = RatFunc.make(_pi_power(self.pi, k), Poly.one(self.field)) \
            if k >= 0 else RatFunc.make(Poly.one(self.field),
                                        _pi_power(self.pi, -k))
        return LatticeClass(tuple(tuple(f * x for x in row)
                                  for row in self.matrix), self.pi)


def _pi_power(pi: Poly, k: int) -> Poly:
    out = Poly.one(pi.field)
    for _ in range(k):
        out = out * pi
    return out


def diagonal_class(exponents: Sequence[int], q: int = 2,
                   pi: Poly | None = None) -> LatticeClass:
    """The class of the lattice  sum_i pi^{a_i} O e_i."""
    field = pi.field if pi is not None else gf(q)
    pi = pi if pi is not None else Poly.T(field)
    n = len(exponents)
    zero = RatFunc.zero(field)
    rows = []
    for i in range(n):
        a = exponents[i]
        if a >= 0:
            f = RatFunc.of(_pi_power(pi, a))
        else:
            f = RatFunc.make(Poly.one(field), _pi_power(pi, -a))
        rows.append(tuple(f if j == i else zero for j in range(n)))
    return LatticeClass(tuple(rows), pi)


def canonical_exponents(exponents: Sequence[int]) -> tuple[int, ...]:
    """Diagonal class representative normalized so that min exponent is 0."""
    m = min(exponents)
    return tuple(a - m for a in exponents)


def _relative_matrix(inner: LatticeClass, outer: LatticeClass
                     ) -> list[list[RatFunc]]:
    """Coordinates of inner's basis in outer's basis (outer^-1 inner)."""
    try:
        return mat_mul(mat_inv(outer.matrix), inner.matrix)
    except ValueError:
        raise ValueError("lattice basis matrix is singular") from None


def _min_valuation(m: list[list[RatFunc]], pi: Poly) -> int:
    vals = [x.valuation_at_poly(pi) for row in m for x in row
            if not x.is_zero()]
    if not vals:
        raise ValueError("zero relative matrix")
    return min(vals)


def is_contained(inner: LatticeClass, outer: LatticeClass) -> bool:
    """Lattice inclusion of the given representatives (not classes)."""
    return _min_valuation(_relative_matrix(inner, outer), inner.pi) >= 0


def chain_test(classes: Sequence[LatticeClass]
               ) -> tuple[bool, list[int] | None]:
    """Do the classes form a simplex of the building?

    Normalizes every class against the first one (maximal representative
    contained in it), then checks that the representatives are pairwise
    distinct, totally ordered by inclusion, and all contain pi times the
    first.  Returns (ok, order) where order lists the input indices from
    the largest representative down.
    """
    if not classes:
        return True, []
    base = classes[0]
    pi = base.pi
    reps = [base]
    for L in classes[1:]:
        k = -_min_valuation(_relative_matrix(L, base), pi)
        reps.append(L.scaled(k))
    idx = list(range(len(reps)))
    # total order by inclusion (larger lattice first)
    rel: dict[tuple[int, int], bool] = {}
    for i in idx:
        for j in idx:
            if i != j:
                rel[(i, j)] = is_contained(reps[j], reps[i])
    for i in idx:
        for j in idx:
            if i < j:
                if rel[(i, j)] and rel[(j, i)]:
                    return False, None  # equal classes
                if not rel[(i, j)] and not rel[(j, i)]:
                    return False, None  # incomparable
    order = sorted(idx, key=lambda i: -sum(rel[(i, j)] for j in idx if j != i))
    bottom = reps[order[-1]]
    if not is_contained(base.scaled(1), bottom):
        return False, None
    return True, order


def simplex_cone(exponent_sets: Iterable[Sequence[int]], q: int,
                 r: int = 1) -> Cone:
    """Weight cone sigma(S) of a set S of diagonal lattice classes.

    Generated by the vectors (q^{r a_i}) of canonical representatives.  An
    independent H-description, one ``Cone.from_ineqs``, is assembled from
    s_i >= 0 and the two-term comparisons s_i <= q^{r h(i,j)} s_j with
    h(i,j) = max over representatives of (a_i - a_j); the two descriptions
    are asserted to agree.
    """
    check_q(q)
    if r < 1:
        raise ValueError("rank parameter r must be >= 1")
    sets = [canonical_exponents(e) for e in exponent_sets]
    if not sets:
        raise ValueError("need at least one lattice class")
    n = len(sets[0])
    if any(len(e) != n for e in sets):
        raise ValueError("exponent vectors must all have the same length")
    gens = [tuple(q ** (r * a) for a in e) for e in sets]
    by_rays = Cone.from_rays(gens, n=n)
    ineqs = [[1 if j == 0 else 0 for j in range(n)]]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            h = max(e[i] - e[j] for e in sets)
            # q^{r h} s_j - s_i >= 0
            vec = [0] * n
            vec[j] = Fraction(q) ** (r * h)
            vec[i] -= 1
            ineqs.append(vec)
    ineqs += ([1 if j == i else 0 for j in range(n)] for i in range(1, n))
    by_ineqs = Cone.from_ineqs(ineqs, n=n)
    if by_rays != by_ineqs:
        raise AssertionError(
            "generator and inequality descriptions of sigma(S) disagree")
    return by_rays


def standard_simplex_cone(q: int, n: int, r: int = 1) -> Cone:
    """sigma of the standard maximal simplex: {s_1 <= ... <= s_n <= q^r s_1}."""
    sets = [[0] * (n - m) + [1] * m for m in range(n)]
    return simplex_cone(sets, q, r)


def intersection_of_diagonal_sets(s1: Iterable[Sequence[int]],
                                  s2: Iterable[Sequence[int]]
                                  ) -> list[tuple[int, ...]]:
    """Common classes of two sets of diagonal classes (canonical reps)."""
    a = {canonical_exponents(e) for e in s1}
    b = {canonical_exponents(e) for e in s2}
    return sorted(a & b)


def lattice_norm_weights(exponents: Sequence[int], q: int
                         ) -> tuple[Fraction, ...]:
    """Weights of the max norm attached to a diagonal lattice: the vector
    (q^{a_i}) of its canonical representative."""
    return tuple(Fraction(q) ** a for a in canonical_exponents(exponents))
