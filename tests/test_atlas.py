"""Slope fans, chart monoids, boundary incidence graph, symmetric identity."""

from fractions import Fraction

import pytest

from drinfan.atlas import (MPoly, chart_monomials, component_graph,
                           division_polynomial_exponents,
                           division_polynomial_is_symmetric, incident,
                           projective_lines, projective_points, slope_fan,
                           slope_determinants, slope_fan_is_interior_smooth,
                           slope_fan_is_smooth, symmetric_identity_holds)
from drinfan.gf import gf

F = Fraction


def test_projective_counts():
    assert len(projective_points(2)) == 7
    assert len(projective_points(3)) == 13
    # every line contains q + 1 points
    for q in (2, 3):
        pts = projective_points(q)
        for l in projective_lines(q):
            assert sum(incident(q, a, l) for a in pts) == q + 1


def test_incident_rejects_a_point_and_line_of_different_lengths():
    # zip would test (1, 0, 0) against the line (0, 1) on two coordinates
    for a, line in (((1, 0, 0), (0, 1)), ((0, 1), (1, 0, 0))):
        with pytest.raises(ValueError, match=f"point has length {len(a)}, "
                                             f"line has length {len(line)}"):
            incident(2, a, line)
    assert incident(2, (1, 0, 0), (0, 1, 0))


def test_component_counts_m0():
    comps, edges = component_graph(2, 0)
    assert len(comps) == 14
    assert len(edges) == 21
    kinds = {c[0] for c in comps}
    assert kinds == {"point", "line"}


def test_component_counts_m1():
    comps, edges = component_graph(2, 1)
    flags = [c for c in comps if c[0] == "flag"]
    assert len(flags) == 21
    # no direct point-line edges when m >= 1
    assert all({a[0], b[0]} != {"point", "line"} for a, b in edges)
    assert len(edges) == 42


def test_component_chain_rule_m2():
    comps, edges = component_graph(2, 2)
    flags = [c for c in comps if c[0] == "flag"]
    assert len(flags) == 42
    # flag-flag edges only between consecutive levels of the same flag
    for a, b in edges:
        if a[0] == "flag" and b[0] == "flag":
            assert a[1] == b[1] and a[2] == b[2]
            assert abs(a[3] - b[3]) == 1


def test_slope_fan_structure():
    fan = slope_fan([F(3, 2)])
    assert len(fan.maximal_cones()) == 2
    assert fan.validate() == []
    rays = {r for c in fan.maximal_cones() for r in c.rays()}
    assert rays == {(1, 1), (2, 3), (0, 1)}


def test_slope_determinants_and_smoothness():
    # consecutive-pair determinants, ending against the vertical ray
    assert slope_determinants([F(3, 2)]) == [1, 2]
    assert slope_fan_is_interior_smooth([F(3, 2)])
    assert not slope_fan_is_smooth([F(3, 2)])
    # integer slope 2 gives a fully smooth fan
    assert slope_determinants([F(2)]) == [1, 1]
    assert slope_fan_is_smooth([F(2)])
    # no extra slopes: the single cone between (1,1) and (0,1) is smooth
    assert slope_fan_is_smooth([])


def test_rejects_bad_slopes():
    with pytest.raises(ValueError):
        slope_fan([F(1)])  # not strictly above 1
    with pytest.raises(ValueError):
        slope_fan([F(3), F(2)])  # not increasing


def test_chart_monomials_of_smooth_cone():
    fan = slope_fan([F(2)])
    for c in fan.maximal_cones():
        mons = chart_monomials(c)
        assert len(mons) == 2  # smooth 2d cone: exactly two chart generators


def test_mpoly_arithmetic():
    K = gf(2)
    x = MPoly.variable(K, 0, 2)
    y = MPoly.variable(K, 1, 2)
    assert ((x + y) * (x + y)).terms == ((x * x) + (y * y)).terms  # char 2
    assert (x - x).is_zero()


def test_mpoly_arithmetic_rejects_exponents_of_different_lengths():
    # zip would add (1, 0) to the first two exponents of (0, 0, 1) only,
    # and a sum would hold terms of both lengths
    F = gf(2)
    x, z = MPoly.variable(F, 0, 2), MPoly.variable(F, 2, 3)
    for op in (lambda: x * z, lambda: z * x, lambda: x + z, lambda: z - x):
        with pytest.raises(ValueError, match="exponent vectors of lengths"):
            op()
    assert (x * x).terms == (((2, 0), 1),)
    assert (x * MPoly.zero(F)).is_zero()


def test_symmetric_identity():
    assert symmetric_identity_holds(2)


def test_division_polynomial():
    assert division_polynomial_exponents(2) == [1, 2, 4, 8]
    assert division_polynomial_is_symmetric(2)
