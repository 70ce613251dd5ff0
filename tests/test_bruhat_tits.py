"""Lattice classes, chains, and apartment cones."""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import pytest

from drinfan.bruhat_tits import (canonical_exponents, simplex_cone,
                                 standard_simplex_cone)
from drinfan.cones import Cone
from drinfan.gf import Poly, RatFunc, gf
from drinfan.linalg import mat_inv, mat_mul


# ---------------------------------------------------------------------------
# lattice classes and the chain test of the building (test-only reference)


@dataclass(frozen=True)
class _LatticeClass:
    """A full lattice in E^n modulo pi-power scaling, given by a basis
    matrix (columns are basis vectors) over F_q(T)."""

    matrix: tuple[tuple[RatFunc, ...], ...]
    pi: Poly

    def scaled(self, k: int) -> "_LatticeClass":
        """Representative pi^k L (same class)."""
        f = RatFunc.make(_pi_power(self.pi, k), Poly.one(self.pi.field)) \
            if k >= 0 else RatFunc.make(Poly.one(self.pi.field),
                                        _pi_power(self.pi, -k))
        return _LatticeClass(tuple(tuple(f * x for x in row)
                                   for row in self.matrix), self.pi)


def _pi_power(pi: Poly, k: int) -> Poly:
    out = Poly.one(pi.field)
    for _ in range(k):
        out = out * pi
    return out


def _diagonal_class(exponents: Sequence[int], q: int = 2) -> _LatticeClass:
    """The class of the lattice  sum_i T^{a_i} O e_i."""
    field = gf(q)
    pi = Poly.T(field)
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
    return _LatticeClass(tuple(rows), pi)


def _relative_matrix(inner: _LatticeClass, outer: _LatticeClass
                     ) -> list[list[RatFunc]]:
    """Coordinates of inner's basis in outer's basis (outer^-1 inner)."""
    return mat_mul(mat_inv(outer.matrix), inner.matrix)


def _min_valuation(m: list[list[RatFunc]], pi: Poly) -> int:
    return min(x.valuation_at_poly(pi) for row in m for x in row
               if not x.is_zero())


def _is_contained(inner: _LatticeClass, outer: _LatticeClass) -> bool:
    """Lattice inclusion of the given representatives (not classes)."""
    return _min_valuation(_relative_matrix(inner, outer), inner.pi) >= 0


def _chain_test(classes: Sequence[_LatticeClass]
                ) -> tuple[bool, list[int] | None]:
    """Do the classes form a simplex of the building?

    Normalizes every class against the first one (maximal representative
    contained in it), then checks that the representatives are pairwise
    distinct, totally ordered by inclusion, and all contain pi times the
    first.  Returns (ok, order) where order lists the input indices from
    the largest representative down.
    """
    base = classes[0]
    reps = [base]
    for L in classes[1:]:
        k = -_min_valuation(_relative_matrix(L, base), base.pi)
        reps.append(L.scaled(k))
    idx = list(range(len(reps)))
    # total order by inclusion (larger lattice first)
    rel = {(i, j): _is_contained(reps[j], reps[i])
           for i in idx for j in idx if i != j}
    for i in idx:
        for j in idx:
            if i < j:
                if rel[(i, j)] and rel[(j, i)]:
                    return False, None  # equal classes
                if not rel[(i, j)] and not rel[(j, i)]:
                    return False, None  # incomparable
    order = sorted(idx, key=lambda i: -sum(rel[(i, j)] for j in idx if j != i))
    bottom = reps[order[-1]]
    if not _is_contained(base.scaled(1), bottom):
        return False, None
    return True, order


def _intersection_of_diagonal_sets(s1: Iterable[Sequence[int]],
                                   s2: Iterable[Sequence[int]]
                                   ) -> list[tuple[int, ...]]:
    """Common classes of two sets of diagonal classes (canonical reps)."""
    return sorted({canonical_exponents(e) for e in s1}
                  & {canonical_exponents(e) for e in s2})


def _lattice_norm_weights(exponents: Sequence[int], q: int
                          ) -> tuple[Fraction, ...]:
    """Weights of the max norm attached to a diagonal lattice: the vector
    (q^{a_i}) of its canonical representative."""
    return tuple(Fraction(q) ** a for a in canonical_exponents(exponents))


def test_canonical_exponents():
    assert canonical_exponents((2, 3, 5)) == (0, 1, 3)
    assert canonical_exponents((-1, 0)) == (0, 1)


def test_containment():
    L0 = _diagonal_class((0, 0))
    L1 = _diagonal_class((0, 1))
    assert _is_contained(L1, L0)
    assert not _is_contained(L0, L1)


def test_chain_simplex():
    L0 = _diagonal_class((0, 0))
    L1 = _diagonal_class((0, 1))
    ok, order = _chain_test([L0, L1])
    assert ok and order == [0, 1]


def test_chain_rejects_incomparable():
    ok, _ = _chain_test([_diagonal_class((0, 1)), _diagonal_class((1, 0))])
    assert not ok


def test_chain_rejects_equal_classes():
    ok, _ = _chain_test([_diagonal_class((0, 0)), _diagonal_class((1, 1))])
    assert not ok


def test_chain_three_dim():
    S = [_diagonal_class((0, 0, 0)), _diagonal_class((0, 0, 1)),
         _diagonal_class((0, 1, 1))]
    ok, order = _chain_test(S)
    assert ok
    # too deep: (0,0,2) not within one uniformizer step of (0,0,0)
    ok2, _ = _chain_test([_diagonal_class((0, 0, 0)),
                          _diagonal_class((0, 0, 2))])
    assert not ok2


def test_standard_simplex_cones():
    assert set(standard_simplex_cone(2, 2).rays()) == {(1, 1), (1, 2)}
    assert set(standard_simplex_cone(2, 3).rays()) == \
        {(1, 1, 1), (1, 1, 2), (1, 2, 2)}
    # the standard simplex is {s_1 <= ... <= s_n <= q s_1}
    c = standard_simplex_cone(3, 2)
    assert c.contains((1, 2))
    assert c.contains((1, 3))
    assert not c.contains((1, 4))
    assert not c.contains((2, 1))


def test_rank_scaling():
    # exponent r scales every comparison exponent
    c = standard_simplex_cone(2, 2, r=3)
    assert set(c.rays()) == {(1, 1), (1, 8)}


def test_simplex_cone_vh_consistency_asserted():
    # the constructor asserts generator/inequality agreement internally
    c = simplex_cone([(0, 0), (0, 1), (1, 1)], 2)
    assert c.dim() == 2
    assert set(c.rays()) == {(1, 1), (1, 2), (2, 2)} or \
        set(c.rays()) == {(1, 1), (1, 2)}


def test_vertex_and_edge_cones():
    vertex = simplex_cone([(0, 0)], 2)
    assert vertex.rays() == ((1, 1),)
    edge = simplex_cone([(0, 0), (0, 1)], 2)
    assert set(edge.rays()) == {(1, 1), (1, 2)}


def test_intersection_property():
    """sigma(S intersect S') = sigma(S) intersect sigma(S') for simplices."""
    s1 = [(0, 0), (0, 1)]
    s2 = [(0, 1), (0, 2)]
    common = _intersection_of_diagonal_sets(s1, s2)
    assert common == [(0, 1)]
    left = simplex_cone(s1, 2).intersect(simplex_cone(s2, 2))
    right = simplex_cone(common, 2)
    assert left == right


def test_intersection_property_disjoint():
    s1 = [(0, 0)]
    s2 = [(0, 1)]
    assert _intersection_of_diagonal_sets(s1, s2) == []
    inter = simplex_cone(s1, 2).intersect(simplex_cone(s2, 2))
    # distinct vertices: cones share only the origin... or a common face
    assert inter.dim() <= 1


def test_lattice_norm_weights():
    assert _lattice_norm_weights((1, 2), 2) == (1, 2)
    assert _lattice_norm_weights((3, 3), 2) == (1, 1)


def test_apartment_edges_tile_weight_cone():
    # cones of the edges {(0,h-1),(0,h)} tile {s_1 <= s_2} as h grows
    from drinfan.cones import Fan
    from drinfan.xi import cone_Cd
    cones = [simplex_cone([(0, h - 1), (0, h)], 2) for h in range(1, 5)]
    for c, h in zip(cones, range(1, 5)):
        assert set(c.rays()) == {(1, 2 ** (h - 1)), (1, 2 ** h)}
    fan = Fan(cones + [Cone.from_rays([(1, 1)]), Cone.from_rays([(0, 1)])])
    # valid fan; support check omitted because the tiling is infinite
    assert fan.validate() == []


def test_simplex_cones_of_all_vertex_subsets_build():
    # negative comparison exponents give fractional coefficients q^(r h);
    # for odd q these used to be floats and broke the H-description
    for n in (2, 3):
        vertices = [[0] * (n - m) + [1] * m for m in range(n)]
        for q in (2, 3, 4, 5):
            for r in (1, 2):
                for size in range(1, n + 1):
                    for sets in itertools.combinations(vertices, size):
                        c = simplex_cone(sets, q, r)
                        assert set(c.rays()) == {
                            tuple(q ** (r * a) for a in e) for e in sets}


def test_simplex_cone_input_checks():
    with pytest.raises(ValueError):
        simplex_cone([(0, 1), (0,)], 2)
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError):
            simplex_cone([(0, 1)], q)
        with pytest.raises(ValueError):
            standard_simplex_cone(q, 2)
    for q in (2, 3, 4, 5, 8, 9, 17):
        assert standard_simplex_cone(q, 2).dim() == 2
