"""Apartment simplex cones of the affine building.

A diagonal lattice class sum_i pi^{a_i} O e_i (E = F_q(T) completed at an
irreducible pi) is given by its exponent vector (a_i), up to adding a
constant; a set S of such classes is a simplex of the apartment when
representatives form a descending chain L^0 > L^1 > ... > L^m > pi L^0.
The module provides:

* for sets of diagonal classes, the weight cone sigma(S) generated by the
  vectors (q^{a_i}) of the representatives, with an independently built
  two-term inequality description that is asserted against the generator
  description, and its rank-r variant where every comparison exponent is
  scaled by r,
* the standard simplex cone {s_1 <= ... <= s_n <= q s_1}.

The lattice-class chain test of the building is a reference in the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .cones import Cone
from .gf import check_q

__all__ = ["simplex_cone", "standard_simplex_cone", "canonical_exponents"]


def canonical_exponents(exponents: Sequence[int]) -> tuple[int, ...]:
    """Diagonal class representative normalized so that min exponent is 0."""
    m = min(exponents)
    return tuple(a - m for a in exponents)


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
