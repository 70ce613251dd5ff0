"""Slope fans, chart monoids, boundary incidence graph, symmetric identity."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from drinfan import atlas, cli
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


def test_component_graph_rejects_a_negative_level_count():
    with pytest.raises(ValueError, match="flag level count m must be >= 0"):
        component_graph(2, -1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_component_graph_closed_forms(q):
    # |P^2(F_q)| = q^2 + q + 1 points and as many lines; each point lies
    # on q + 1 lines and each line holds q + 1 points, so there are
    # (q + 1)(q^2 + q + 1) flags, each with m levels and a chain of m + 1
    # edges
    size = q * q + q + 1
    for m in (0, 1, 2):
        comps, edges = component_graph(q, m)
        assert len(comps) == (2 + m * (q + 1)) * size
        assert len(edges) == (m + 1) * (q + 1) * size
        # the edge at D(a) that ends each chain names its pair (a, l):
        # (D(a), D(l)) when m = 0, (D(a, l, m), D(a)) otherwise
        pairs = [(x[1], y[1]) if x[0] == "point" else (x[1], x[2])
                 for x, y in edges if "point" in (x[0], y[0])]
        assert len(set(pairs)) == len(pairs) == (q + 1) * size
        for side in (0, 1):
            per = Counter(pair[side] for pair in pairs)
            assert len(per) == size and set(per.values()) == {q + 1}


def _graph_reference(q, m):
    """Components and edges built as the definition reads: every nonzero
    triple normalized by its first nonzero entry, and each (point, line)
    pair tested with the field's methods."""
    K = gf(q)
    pts = set()
    for v in itertools.product(K.elements(), repeat=3):
        if any(v):
            inv = K.inv(next(x for x in v if x))
            pts.add(tuple(K.mul(inv, x) for x in v))
    pts = sorted(pts)
    comps = [("point", a) for a in pts] + [("line", l) for l in pts]
    edges = []
    for a in pts:
        for l in pts:
            acc = 0
            for x, y in zip(a, l):
                acc = K.add(acc, K.mul(x, y))
            if acc == 0:
                flags = [("flag", a, l, i) for i in range(1, m + 1)]
                comps += flags
                chain = ([("line", l), *flags, ("point", a)] if m
                         else [("point", a), ("line", l)])
                edges.extend(zip(chain, chain[1:]))
    return comps, edges


def test_component_graph_lists_match_the_definition():
    # the lists themselves, in order, as `atlas graph --dot` and the
    # exporter read them
    for q, m in ((3, 2), (4, 1), (2, 0)):
        assert component_graph(q, m) == _graph_reference(q, m)
    for q in (2, 3, 4, 5, 7, 8, 9):
        size = q * q + q + 1
        assert projective_points(q) == [
            c[1] for c in _graph_reference(q, 0)[0][:size]]


def _substitute_reference(p, images):
    """Variable i replaced by images[i], one product at a time."""
    K = p.field
    if not p.terms:
        return p
    nvars = next((len(g.terms[0][0]) for g in images if g.terms),
                 len(p.terms[0][0]))
    total = MPoly.zero(K)
    for e, c in p.terms:
        acc = MPoly.make(K, {(0,) * nvars: c})
        for i, ei in enumerate(e):
            for _ in range(ei):
                acc = acc * images[i]
        total = total + acc
    return total


def _random_mpoly(rng, K, nvars, degree, count):
    terms = {}
    for _ in range(count):
        e = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = rng.randrange(K.q)
    return MPoly.make(K, terms)


def test_substitute_matches_one_product_at_a_time():
    rng = random.Random("atlas-substitute")
    seen = Counter()
    for _ in range(300):
        K = gf(rng.choice([2, 3, 4]))
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        p = _random_mpoly(rng, K, n, 6, rng.randint(0, 8))
        images = []
        for _ in range(n):
            kind = rng.choice(["zero", "constant", "poly", "poly"])
            seen[kind] += 1
            if kind == "zero":
                images.append(MPoly.zero(K))
            elif kind == "constant":
                images.append(MPoly.make(K, {(0,) * m: rng.randrange(1, K.q)}))
            else:
                images.append(_random_mpoly(rng, K, m, 3, rng.randint(1, 4)))
        assert p.substitute(images) == _substitute_reference(p, images), \
            (p, images)
    assert min(seen.values()) >= 50, seen


def test_substitute_reads_the_variable_count_off_a_nonzero_image():
    K = gf(2)
    x, y = MPoly.variable(K, 0, 2), MPoly.variable(K, 1, 2)
    zero, one = MPoly.zero(K), MPoly.make(K, {(0, 0): 1})
    p = x * y + y
    assert p.substitute([zero, x]) == x
    assert p.substitute([y, x]) == x * y + x
    # every image zero: the result keeps self's variables
    assert p.substitute([zero, zero]).is_zero()
    assert (p + one).substitute([zero, zero]).terms == (((0, 0), 1),)
    assert zero.substitute([]) == zero
    with pytest.raises(ValueError,
                       match="1 images for exponent vectors of length 2"):
        p.substitute([x])
    with pytest.raises(ValueError,
                       match="3 images for exponent vectors of length 2"):
        p.substitute([x, y, x])
    z = MPoly.variable(K, 2, 3)
    with pytest.raises(ValueError, match="exponent vectors of lengths 2 and 3"):
        p.substitute([x, z])


def test_division_polynomial_vanishes_on_its_span():
    # the coefficients are those of the literal product over V, so every f
    # in V is a root: sum_k c_k f^k = 0
    K = gf(2)
    coeffs = atlas._division_polynomial(2)
    span = atlas._span_combinations(K, 3, 3)
    assert len(span) == 8 and coeffs[-1] == (8, MPoly.make(K, {(0, 0, 0): 1}))
    for f in span:
        value, power, k = MPoly.zero(K), MPoly.make(K, {(0, 0, 0): 1}), 0
        for e, c in coeffs:
            while k < e:
                power, k = power * f, k + 1
            value = value + c * power
        assert value.is_zero(), f


def test_gl3_check_fails_on_a_coefficient_that_is_not_invariant():
    K = gf(2)
    coeffs = atlas._division_polynomial(2)
    assert division_polynomial_exponents(2, coeffs=coeffs) == [1, 2, 4, 8]
    assert division_polynomial_is_symmetric(2, coeffs=coeffs)
    u0 = MPoly.variable(K, 0, 3)
    for i, (k, c) in enumerate(coeffs):
        bad = list(coeffs)
        # u0^(8-k) keeps the degree but the swap u0 <-> u1 moves it
        bad[i] = (k, c + MPoly.variable(K, 0, 3, power=8 - k) if k < 8
                  else c + u0)
        assert not division_polynomial_is_symmetric(2, coeffs=bad), k


def test_satake_check_builds_one_division_polynomial(monkeypatch, capsys):
    calls = []
    build = atlas._division_polynomial

    def counted(q=2):
        calls.append(q)
        return build(q)
    monkeypatch.setattr(atlas, "_division_polynomial", counted)
    monkeypatch.setattr(cli, "_division_polynomial", counted)
    assert cli.main(["satake-check"]) == 0
    assert calls == [2]
    assert capsys.readouterr().out.count("\tpass") == 3
