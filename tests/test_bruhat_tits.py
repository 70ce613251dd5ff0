"""Lattice classes, chains, and apartment cones."""

import itertools

import pytest

from drinfan.bruhat_tits import (canonical_exponents, chain_test,
                                 diagonal_class, intersection_of_diagonal_sets,
                                 is_contained, lattice_norm_weights,
                                 simplex_cone, standard_simplex_cone)
from drinfan.cones import Cone


def test_canonical_exponents():
    assert canonical_exponents((2, 3, 5)) == (0, 1, 3)
    assert canonical_exponents((-1, 0)) == (0, 1)


def test_containment():
    L0 = diagonal_class((0, 0))
    L1 = diagonal_class((0, 1))
    assert is_contained(L1, L0)
    assert not is_contained(L0, L1)


def test_chain_simplex():
    L0 = diagonal_class((0, 0))
    L1 = diagonal_class((0, 1))
    ok, order = chain_test([L0, L1])
    assert ok and order == [0, 1]


def test_chain_rejects_incomparable():
    ok, _ = chain_test([diagonal_class((0, 1)), diagonal_class((1, 0))])
    assert not ok


def test_chain_rejects_equal_classes():
    ok, _ = chain_test([diagonal_class((0, 0)), diagonal_class((1, 1))])
    assert not ok


def test_chain_three_dim():
    S = [diagonal_class((0, 0, 0)), diagonal_class((0, 0, 1)),
         diagonal_class((0, 1, 1))]
    ok, order = chain_test(S)
    assert ok
    # too deep: (0,0,2) not within one uniformizer step of (0,0,0)
    ok2, _ = chain_test([diagonal_class((0, 0, 0)),
                         diagonal_class((0, 0, 2))])
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
    common = intersection_of_diagonal_sets(s1, s2)
    assert common == [(0, 1)]
    left = simplex_cone(s1, 2).intersect(simplex_cone(s2, 2))
    right = simplex_cone(common, 2)
    assert left == right


def test_intersection_property_disjoint():
    s1 = [(0, 0)]
    s2 = [(0, 1)]
    assert intersection_of_diagonal_sets(s1, s2) == []
    inter = simplex_cone(s1, 2).intersect(simplex_cone(s2, 2))
    # distinct vertices: cones share only the origin... or a common face
    assert inter.dim() <= 1


def test_lattice_norm_weights():
    assert lattice_norm_weights((1, 2), 2) == (1, 2)
    assert lattice_norm_weights((3, 3), 2) == (1, 1)


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
