"""Weighted maximum norms on A^n (A = F_q[T]) and successive-minima bases.

A WeightedNorm with positive rational weights s = (s_1, ..., s_n) measures
mu(sum x_i e_i) = max_i s_i |x_i| with |x| = q^deg(x), |0| = 0.  The module
computes successive-minima bases of full A-lattices by basis reduction
(Lenstra, J. Comput. Syst. Sci. 30, 1985; Mulders and Storjohann,
J. Symbolic Comput. 35, 2003) and their norm profile, the successive
minima.  The predicate for a change of basis to preserve the
successive-minima property (degree bound on entries plus invertible tie
blocks over F_q) is checked in the tests against this reduction.

Reduction criterion: the leading vector of b is lc(b_i) at each position i
with s_i |b_i| = mu(b), and 0 elsewhere.  If the leading vectors of a basis
are independent over F_q, no cancellation happens at the top:
mu(sum a_j b_j) = max_j |a_j| mu(b_j), and the sorted norms of the basis
are the successive minima.  Two positions lead together in one vector only
if s_i / s_j is a power of q, so the norms of the basis fall into classes
mu q^Z; an F_q-relation among leading vectors holds within each class, and
its multipliers T^e are monomials.  Each reduction step replaces a vector
by a combination of strictly smaller norm, and the norms of lattice
vectors below a bound form a finite set, so the reduction terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .gf import GF, Poly, RatFunc
from .linalg import det, nullspace

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
        return max((w * p.absolute_value() for w, p in zip(self.weights, x)),
                   default=Fraction(0))


def successive_minima(norm: WeightedNorm, generators: Sequence[Vector]
                      ) -> tuple[list[Vector], list[Fraction]]:
    """Successive-minima basis of the A-lattice spanned by generators.

    Reduces a copy of the generators until their leading vectors are
    independent over F_q.  While they are not, take an F_q-relation
    sum c_j lead(b_j) = 0, let b_top have the largest norm among the b_j
    with c_j != 0, and keep only the b_j with mu(b_top) / mu(b_j) = q^e_j:
    b_j leads at position i only if mu(b_j) lies in s_i q^Z, so the
    relation holds on this q-class alone.  Replace b_top by
    sum c_j T^e_j b_j, a unimodular change since c_top is a unit.  Each
    term has norm mu(b_top) and leading vector lead(b_j), so the leading
    terms cancel and the norm strictly drops; norms of lattice vectors up
    to the largest generator norm form a finite set, so the loop ends.
    Returns the basis sorted by norm and its norms, the successive minima.
    """
    field, q, n = norm.field, norm.field.q, norm.n
    basis = [tuple(g) for g in generators]
    if len(basis) != n:
        raise ValueError("need n generators for a full lattice")
    if det([[g[i] for g in basis] for i in range(n)]).is_zero():
        raise ValueError("generators are not a lattice basis")
    while True:
        mus = [norm.norm(b) for b in basis]
        lead = [[p.coeffs[-1] if p and s * p.absolute_value() == mu else 0
                 for s, p in zip(norm.weights, b)]
                for b, mu in zip(basis, mus)]
        # the F_q-relations: the kernel of the matrix with columns lead
        relations = nullspace([[RatFunc.of(Poly.constant(field, x))
                                for x in row] for row in zip(*lead)])
        if not relations:
            break
        c = relations[0]
        top = max((j for j in range(n) if c[j]), key=mus.__getitem__)
        new = [Poly.zero(field)] * n
        for j in range(n):
            e = 0
            while mus[j] * q ** e < mus[top]:
                e += 1
            # only the q-class of b_top: mu(b_top) = q^e mu(b_j)
            if c[j] and mus[j] * q ** e == mus[top]:
                m = Poly.make(field, [0] * e + [c[j].num.coeffs[0]])
                new = [x + m * y for x, y in zip(new, basis[j])]
        basis[top] = tuple(new)
    order = sorted(range(n), key=mus.__getitem__)
    return [basis[j] for j in order], [mus[j] for j in order]
