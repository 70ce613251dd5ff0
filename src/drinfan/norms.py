"""Weighted maximum norms on A^n (A = F_q[T]) and successive-minima bases.

A WeightedNorm with positive rational weights s = (s_1, ..., s_n) measures
mu(sum x_i e_i) = max_i s_i |x_i| with |x| = q^deg(x), |0| = 0.  The module
computes successive-minima bases of full A-lattices by exhaustive search
inside an exact degree bound (greedy over the lattice minus the A-span of
the vectors chosen so far, lexicographic tie-breaking) with their norm
profile, and the predicate for a change of basis to preserve the
successive-minima property (degree bound on entries plus invertible tie
blocks over F_q).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gf import GF, Poly, RatFunc, polys_of_degree_at_most
from .linalg import det, solve

__all__ = ["WeightedNorm", "successive_minima", "is_norm_preserving_change",
           "apply_change", "normalized_profile"]

Vector = tuple[Poly, ...]

# largest number of coefficient tuples successive_minima will enumerate
_SEARCH_CAP = 200_000


@dataclass(frozen=True)
class WeightedNorm:
    field: GF
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    def norm(self, x: Sequence[Poly]) -> Fraction:
        return max((w * p.absolute_value() for w, p in zip(self.weights, x)),
                   default=Fraction(0))


def _in_A_span(vectors: list[Vector], x: Vector) -> bool:
    """Is x in the A-span of the given vectors?"""
    if not vectors:
        return all(p.is_zero() for p in x)
    # solve sum_j c_j vectors[j] = x over F_q(T); need every c_j in A
    sol = solve([[RatFunc.of(v[i]) for v in vectors] for i in range(len(x))],
                [RatFunc.of(p) for p in x])
    return sol is not None and all(c.den.degree == 0 for c in sol)


def successive_minima(norm: WeightedNorm, generators: Sequence[Vector]
                      ) -> tuple[list[Vector], list[Fraction]]:
    """Greedy successive-minima basis of the A-lattice spanned by generators.

    Each chosen vector has minimal norm among lattice vectors outside the
    A-span of the previously chosen ones; ties are broken by the
    lexicographic order of the coefficient tuple.  Exhaustive search within
    an exact degree bound derived from the generator norms.
    """
    field = norm.field
    q = field.q
    n = norm.n
    gens = [tuple(g) for g in generators]
    if len(gens) != n:
        raise ValueError("need n generators for a full lattice")
    if det([[g[i] for g in gens] for i in range(n)]).is_zero():
        raise ValueError("generators are not a lattice basis")
    # any successive-minima vector has norm <= max generator norm
    bound = max(norm.norm(g) for g in gens)
    min_w = min(norm.weights)
    deg_x = 0
    while Fraction(q) ** (deg_x + 1) * min_w <= bound:
        deg_x += 1
    # coefficient degree bound via Cramer: a = adj(G) x / det
    adj_deg = 0
    for i in range(n):
        for j in range(n):
            minor = [[gens[jj][ii] for jj in range(n) if jj != j]
                     for ii in range(n) if ii != i]
            md = det(minor) if minor else Poly.one(field)
            if not md.is_zero():
                adj_deg = max(adj_deg, md.degree)
    deg_a = adj_deg + deg_x  # det has degree >= 0, dividing only lowers this
    count = (q ** (deg_a + 1)) ** n
    if count > _SEARCH_CAP:
        raise ValueError(f"search space {count} exceeds cap {_SEARCH_CAP}")
    coeff_space = list(polys_of_degree_at_most(field, deg_a))
    candidates = []
    for coeffs in itertools.product(coeff_space, repeat=n):
        if all(c.is_zero() for c in coeffs):
            continue
        v = tuple(
            sum((gens[j][i] * coeffs[j] for j in range(1, n)),
                gens[0][i] * coeffs[0])
            for i in range(n))
        key = tuple(itertools.chain.from_iterable(c.coeffs for c in coeffs))
        candidates.append((norm.norm(v), key, v))
    candidates.sort(key=lambda t: (t[0], t[1]))
    basis: list[Vector] = []
    values: list[Fraction] = []
    for value, _, v in candidates:
        if len(basis) == n:
            break
        if _in_A_span(basis, v):
            continue
        basis.append(v)
        values.append(value)
    if len(basis) != n:
        raise RuntimeError("failed to extract a full successive-minima basis")
    return basis, values


def normalized_profile(values: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Profile up to a global positive scaling (first value scaled to 1)."""
    vals = [Fraction(v) for v in values]
    if not vals or vals[0] <= 0:
        raise ValueError("profile values must be positive")
    return tuple(v / vals[0] for v in vals)


def apply_change(basis: Sequence[Vector], matrix: Sequence[Sequence[Poly]]
                 ) -> list[Vector]:
    """New basis lambda'_i = sum_j matrix[i][j] * basis[j]."""
    n = len(basis)
    out = []
    for i in range(n):
        v = tuple(
            sum((basis[j][c] * matrix[i][j] for j in range(1, n)),
                basis[0][c] * matrix[i][0])
            for c in range(len(basis[0])))
        out.append(v)
    return out


def is_norm_preserving_change(values: Sequence[Fraction],
                              matrix: Sequence[Sequence[Poly]]) -> bool:
    """Does the change of basis preserve the successive-minima property?

    values are the norms mu(lambda_j) of the old basis (weakly increasing).
    Conditions: every nonzero entry satisfies |a_ij| mu(lambda_j) <=
    mu(lambda_i) (which forces a_ij = 0 whenever mu(lambda_j) > mu(lambda_i)),
    and for each group of equal norm values the block of constant terms is
    invertible over F_q.
    """
    vals = [Fraction(v) for v in values]
    n = len(vals)
    field = matrix[0][0].field
    for i in range(n):
        for j in range(n):
            a = matrix[i][j]
            if a.is_zero():
                continue
            if a.absolute_value() * vals[j] > vals[i]:
                return False
    # tie blocks
    groups: dict[Fraction, list[int]] = {}
    for i, v in enumerate(vals):
        groups.setdefault(v, []).append(i)
    for idxs in groups.values():
        block = [[Poly.constant(field, matrix[i][j].coeff(0)) for j in idxs]
                 for i in idxs]
        if not det(block):
            return False
    return True
