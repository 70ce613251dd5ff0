"""Weighted maximum norms on A^n (A = F_q[T]) and successive-minima bases.

A WeightedNorm with positive rational weights s = (s_1, ..., s_n) measures
mu(sum x_i e_i) = max_i s_i |x_i| with |x| = q^deg(x), |0| = 0.  The module
computes successive-minima bases of full A-lattices by weak Popov
reduction (Mulders and Storjohann, J. Symbolic Comput. 35, 2003; Lenstra,
J. Comput. Syst. Sci. 30, 1985) and their norm profile, the successive
minima.  The predicate for a change of basis to preserve the
successive-minima property (degree bound on entries plus invertible tie
blocks over F_q) is checked in the tests against this reduction.

Reduction criterion: the leading vector of b is lc(b_i) at each position i
with s_i |b_i| = mu(b), and 0 elsewhere; the pivot of b is the last such
position.  If the leading vectors of a basis are independent over F_q, no
cancellation happens at the top: mu(sum a_j b_j) = max_j |a_j| mu(b_j),
and the sorted norms of the basis are the successive minima.  Leading
vectors with distinct pivots are in echelon form, hence independent.

Pivot collisions: while b_j, b_k share the pivot i, with
deg b_j[i] >= deg b_k[i], replace b_j by b_j - c T^e b_k, where
e = deg b_j[i] - deg b_k[i] and c = lc(b_j[i]) / lc(b_k[i]): a unimodular
step.  Both top entries sit at position i under the weight s_i, so
mu(T^e b_k) = q^e mu(b_k) = mu(b_j); T^e b_k leads only at positions <= i,
and the entry at i loses its top term, so the pair (mu, pivot) of b_j drops
lexicographically.  Norms of lattice vectors up to the largest generator
norm form a finite set, so the collisions end, with distinct pivots or
with a zero vector, which shows the generators dependent over A.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gf import GF, Poly

__all__ = ["WeightedNorm", "successive_minima"]

Vector = tuple[Poly, ...]


@dataclass(frozen=True)
class WeightedNorm:
    field: GF
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ws = tuple(Fraction(w) for w in self.weights)
        if not ws:
            raise ValueError("weights must be non-empty")
        if any(w <= 0 for w in ws):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    def norm(self, x: Sequence[Poly]) -> Fraction:
        if len(x) != len(self.weights):
            raise ValueError(f"vector has length {len(x)}, expected "
                             f"{len(self.weights)}")
        return max((w * p.absolute_value() for w, p in zip(self.weights, x)),
                   default=Fraction(0))


def successive_minima(norm: WeightedNorm, generators: Sequence[Vector]
                      ) -> tuple[list[Vector], list[Fraction]]:
    """Successive-minima basis of the A-lattice spanned by generators.

    Reduces a copy of them by pivot collisions (module docstring); a zero
    vector raises ValueError.  Returns the basis sorted by norm and its
    norms, the successive minima.
    """
    field, n, ws = norm.field, norm.n, norm.weights
    basis = [tuple(g) for g in generators]
    if len(basis) != n:
        raise ValueError("need n generators for a full lattice")
    for g in basis:
        if len(g) != n:
            raise ValueError(f"generator has length {len(g)}, expected {n}")
    mus = [Fraction(0)] * n
    owner: dict[int, int] = {}  # pivot -> the vector that holds it
    todo = list(range(n))
    while todo:
        j = todo.pop()
        sizes = [s * p.absolute_value() for s, p in zip(ws, basis[j])]
        mu = max(sizes)
        if not mu:
            raise ValueError("generators are not a lattice basis")
        i = n - 1 - sizes[::-1].index(mu)  # the pivot
        k = owner.get(i)
        if k is None:
            owner[i], mus[j] = j, mu
            continue
        a, b = basis[j][i], basis[k][i]
        if a.degree < b.degree:  # b_j takes the pivot, b_k is reduced
            owner[i], mus[j] = j, mu
            j, k, a, b = k, j, b, a
        m = Poly.make(field, [0] * (a.degree - b.degree)
                      + [field.div(a.coeffs[-1], b.coeffs[-1])])
        basis[j] = tuple(x - m * y for x, y in zip(basis[j], basis[k]))
        todo.append(j)
    order = sorted(range(n), key=mus.__getitem__)
    return [basis[j] for j in order], [mus[j] for j in order]
