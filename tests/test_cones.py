"""Rational polyhedral cones, fans, Hilbert bases, refinement."""


import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from drinfan import cones
from drinfan.cones import (Cone, Fan, _parallelepiped_points,
                           dual_monoid_hilbert_basis)
from drinfan.linalg import (det, mat_inv, primitive, rank, rref,
                            smith_normal_form, solve)
from drinfan.xi import cone_Cd, sigma_upper_fan


def _relative_interior_point(c):
    """The sum of the rays (the origin when there are none)."""
    rays = c.rays()
    if not rays:
        return tuple(Fraction(0) for _ in range(c.n))
    return tuple(sum(Fraction(r[i]) for r in rays) for i in range(c.n))


def _is_subdivision_of(fine, coarse, support):
    """Both fans are valid on ``support`` and every maximal cone of
    ``fine`` lies in a maximal cone of ``coarse``."""
    if fine.validate(support) or coarse.validate(support):
        return False
    coarse_max = coarse.maximal_cones()
    return all(any(o.contains_cone(c) for o in coarse_max)
               for c in fine.maximal_cones())


def test_vh_roundtrip_simple():
    c = Cone.from_rays([(1, 1), (1, 2)])
    assert set(c.rays()) == {(1, 1), (1, 2)}
    # H-rep cuts out the same set
    c2 = Cone.from_ineqs(c.ineqs(), n=2)
    assert c2 == c


@st.composite
def random_rays(draw):
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    rays = [tuple(draw(st.integers(-3, 3)) for _ in range(n))
            for _ in range(k)]
    rays = [r for r in rays if any(r)]
    if not rays:
        rays = [(1,) * n]
    return n, rays


@given(random_rays())
@settings(max_examples=80, deadline=None)
def test_double_description_roundtrip(data):
    n, rays = data
    c = Cone.from_rays(rays, n=n)
    # every generator satisfies the H-rep
    for r in rays:
        assert c.contains(r)
    # rebuild from H-rep
    c2 = Cone.from_ineqs(c.ineqs(), n=n, eqs=c.eqs())
    assert c2 == c
    # relative interior point is inside
    if c.rays() or c.lines():
        assert c.contains(_relative_interior_point(c))


def test_faces_of_quadrant():
    c = Cone.from_ineqs([[1, 0], [0, 1]], n=2)
    faces = c.faces()
    assert len(faces) == 4  # itself, two rays, origin
    dims = sorted(f.dim() for f in faces)
    assert dims == [0, 1, 1, 2]
    for f in faces:
        assert f.is_face_of(c)


def test_face_closure_in_fan():
    fan = Fan([Cone.from_rays([(1, 0), (1, 1)]),
               Cone.from_rays([(1, 1), (0, 1)])])
    assert len(fan.maximal_cones()) == 2
    support = Cone.from_rays([(1, 0), (0, 1)])
    assert fan.validate(support) == []


def test_maximal_cones_follow_add():
    # the maximal cones are cached per fan; add() must clear the cache
    fan = Fan([Cone.from_rays([(1, 0), (1, 1)])])
    first = fan.maximal_cones()
    assert len(first) == 1
    first.clear()  # a copy: the caller cannot empty the cache
    assert len(fan.maximal_cones()) == 1
    fan.add(Cone.from_rays([(1, 1), (0, 1)]))
    assert sorted(c.rays() for c in fan.maximal_cones()) == \
        [((0, 1), (1, 1)), ((1, 0), (1, 1))]
    fan.add(Cone.from_rays([(1, 0), (0, 1)]))  # swallows both
    assert [c.rays() for c in fan.maximal_cones()] == [((0, 1), (1, 0))]


def test_fan_validation_detects_overlap():
    fan = Fan([Cone.from_rays([(1, 0), (1, 2)]),
               Cone.from_rays([(1, 1), (0, 1)])])  # overlapping cones
    problems = fan.validate()
    assert problems


def test_smoothness_and_refinement():
    c = Cone.from_rays([(1, 0), (1, 4)])
    assert not c.is_regular()
    refined = Fan([c]).regular_refinement()
    assert refined.is_regular()
    assert _is_subdivision_of(refined, Fan([c]), c)


def test_refinement_non_simplicial():
    c = Cone.from_rays([(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)])
    refined = Fan([c]).regular_refinement()
    assert refined.is_regular()
    assert _is_subdivision_of(refined, Fan([c]), c)


def test_join_of_fans():
    a = Fan([Cone.from_rays([(1, 0), (1, 1)]),
             Cone.from_rays([(1, 1), (0, 1)])])
    b = Fan([Cone.from_rays([(1, 0), (1, 2)]),
             Cone.from_rays([(1, 2), (0, 1)])])
    j = a.join(b)
    support = Cone.from_rays([(1, 0), (0, 1)])
    assert j.validate(support) == []
    assert _is_subdivision_of(j, a, support)
    assert _is_subdivision_of(j, b, support)


def test_hilbert_basis_quadrant_like():
    # dual of cone{(1,1),(1,2)} in Z^2
    c = Cone.from_rays([(1, 1), (1, 2)])
    data = dual_monoid_hilbert_basis(c)
    gens = set(data["generators"])
    assert gens == {(-1, 1), (2, -1)} or gens == {(2, -1), (-1, 1)}
    # every generator pairs nonnegatively with the cone
    for g in gens:
        for r in c.rays():
            assert sum(a * b for a, b in zip(g, r)) >= 0


def test_hilbert_basis_singular_cone():
    # dual monoid of cone{(1,0),(1,4)}: needs interior generators
    c = Cone.from_rays([(1, 0), (1, 4)])
    data = dual_monoid_hilbert_basis(c)
    gens = set(data["all"])
    # minimality: no generator is a sum of two generators
    import itertools
    for a, b in itertools.combinations_with_replacement(gens, 2):
        s = tuple(x + y for x, y in zip(a, b))
        assert s not in gens
    # extreme generators of the dual plus one interior generator
    assert gens == {(0, 1), (1, 0), (4, -1)}


def test_smooth_index():
    assert Cone.from_rays([(1, 0), (0, 1)]).smooth_index() == 1
    assert Cone.from_rays([(1, 0), (1, 2)]).smooth_index() == 2


def test_stellar_subdivision():
    c = Cone.from_rays([(1, 0), (1, 2)])
    fan = Fan([c]).stellar_subdivide((1, 1))
    assert len(fan.maximal_cones()) == 2
    assert _is_subdivision_of(fan, Fan([c]), c)


def test_cone_rejects_vectors_of_wrong_length():
    with pytest.raises(ValueError):
        Cone.from_rays([[1, 0], [0]], n=2)
    with pytest.raises(ValueError):
        Cone.from_rays([[1, 0]], n=2, lines=[[0, 1, 0]])
    with pytest.raises(ValueError):
        Cone.from_ineqs([[1, 0], [1]], n=2)
    with pytest.raises(ValueError):
        Cone.from_ineqs([[1, 0]], n=2, eqs=[[0]])


# -- the integer double description ------------------------------------------

def _random_vectors(rng, n, count, lo=-3, hi=3):
    out = [tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(count)]
    return [v for v in out if any(v)]


def _scaled(rng, v, positive=True):
    c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    if not positive and rng.random() < 0.5:
        c = -c
    return tuple(c * x for x in v)


def _check_rays_against_facets(c):
    def dot(a, r):
        return sum(x * y for x, y in zip(a, r))
    for r in c.rays():
        assert all(dot(e, r) == 0 for e in c.eqs())
        assert all(dot(a, r) >= 0 for a in c.ineqs())
        tight = list(c.eqs()) + [a for a in c.ineqs() if dot(a, r) == 0]
        assert (rank(tight) if tight else 0) == c.n - 1 - len(c.lines())


def test_dd_convert_random_integer_cones():
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        rays = _random_vectors(rng, n, rng.randint(1, 6))
        lines = _random_vectors(rng, n, rng.choice((0, 0, 0, 1)))
        if not rays and not lines:
            continue
        c = Cone.from_rays(rays, n=n, lines=lines)
        # V -> H -> V gives the same key
        back = Cone.from_ineqs(c.ineqs(), n=n, eqs=c.eqs())
        assert back.key() == c.key(), seed
        assert (back.ineqs(), back.eqs()) == (c.ineqs(), c.eqs())
        # rational rescaling of the input changes nothing
        scaled = Cone.from_rays([_scaled(rng, r) for r in rays], n=n,
                                lines=[_scaled(rng, l, False) for l in lines])
        assert scaled.key() == c.key(), seed
        _check_rays_against_facets(c)
        # and from the halfspace side
        ineqs = _random_vectors(rng, n, rng.randint(1, 6))
        eqs = _random_vectors(rng, n, rng.choice((0, 0, 0, 1)))
        h = Cone.from_ineqs(ineqs, n=n, eqs=eqs)
        assert Cone.from_rays(h.rays(), n=n, lines=h.lines()).key() == h.key()
        hs = Cone.from_ineqs([_scaled(rng, a) for a in ineqs], n=n,
                             eqs=[_scaled(rng, e, False) for e in eqs])
        assert hs.key() == h.key(), seed
        _check_rays_against_facets(h)


def _rref_canonical(rays, lines):
    """Oracle for ``cones._canonical``: rational reduced row echelon form
    of the lines, rays reduced modulo it, everything made primitive."""
    if not lines:
        return tuple(sorted({primitive(r) for r in rays if any(r)})), ()
    red, pivots = rref(lines)
    red = red[:len(pivots)]
    clines = tuple(sorted(primitive(row) for row in red))
    crays = set()
    for r in rays:
        v = list(r)
        for row, pc in zip(red, pivots):
            if v[pc]:
                f = v[pc]
                v = [x - f * y for x, y in zip(v, row)]
        if any(v):
            crays.add(primitive(v))
        elif any(r):
            raise ValueError("ray lies in the lineality space")
    return tuple(sorted(crays)), clines


def test_canonical_matches_rref_oracle():
    with_lines = big = 0  # cases with two or more lines, with large entries
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        bound = rng.choice((3, 3, 10 ** 7))
        gens = _random_vectors(rng, n, rng.randint(1, 6), -bound, bound)
        lines = _random_vectors(rng, n, rng.choice((0, 1, 2, 3)), -bound,
                                bound)
        # both directions: generators to H-rep and inequalities to V-rep
        for vs, ls in ((gens, lines), (lines, gens[:2])):
            out_rays, out_lines = cones._dd_convert(vs, ls, n)
            assert cones._canonical(out_rays, out_lines) == \
                _rref_canonical(out_rays, out_lines), seed
            with_lines += len(out_lines) > 1
            big += any(abs(x) > 10 ** 6 for v in out_rays + out_lines
                       for x in v)
    assert with_lines > 10 and big > 10


def test_faces_cache_holds_no_reference_cycle():
    gc.disable()
    try:
        c = Cone.from_ineqs([[1, 0, 0], [0, 1, 0], [0, 0, 1]], n=3)
        assert len(c.faces()) == 8
        assert c.faces()[0] is c
        ref = weakref.ref(c)
        del c
        assert ref() is None
    finally:
        gc.enable()


# -- face lattices from incidence against double description -----------------

def _dd_facets(c):
    """Oracle: one double-description round trip per inequality."""
    out = {}
    for a in c.ineqs():
        f = Cone.from_ineqs(c.ineqs(), n=c.n, eqs=list(c.eqs()) + [a])
        out[f.key()] = f
    return list(out.values())


def _dd_faces(c):
    """Oracle: self and the facets of facets, each built by conversion."""
    seen = {c.key(): c}
    frontier = [c]
    while frontier:
        frontier = [f for x in frontier for f in _dd_facets(x)
                    if seen.setdefault(f.key(), f) is f]
    return list(seen.values())


def _dd_is_face_of(c, other):
    """Oracle: c is the face of other cut out by the inequalities tight on c."""
    if not other.contains_cone(c):
        return False
    tight = [a for a in other.ineqs()
             if all(sum(x * y for x, y in zip(a, v)) == 0
                    for v in c.rays() + c.lines())]
    face = Cone.from_ineqs(other.ineqs(), n=other.n,
                           eqs=list(other.eqs()) + tight)
    return face == c


def _face_lattice_cases():
    cases = [
        Cone.from_ineqs([], n=3),  # the whole space: no inequalities
        Cone.from_rays([], n=2),  # the origin
        Cone.from_rays([], n=3, lines=[(1, 2, 0)]),  # a line
        Cone.from_rays([(0, 1)], n=2, lines=[(1, 0)]),  # a half-plane
        Cone.from_rays([(1, 0, 0), (0, 1, 0)]),  # a quadrant in R^3
        Cone.from_rays([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
        Cone.from_rays([(1, 0, 0, 1), (0, 1, 0, 1), (-1, 0, 0, 1),
                        (0, -1, 0, 1)], lines=[(0, 0, 1, 0)]),
    ]
    for seed in range(60):
        rng = random.Random(f"faces:{seed}")
        n = rng.randint(1, 4)
        if seed % 2:
            lines = _random_vectors(rng, n, rng.choice((0, 0, 1)))
            rays = _random_vectors(rng, n, rng.randint(0, 6))
            if rays or lines:
                cases.append(Cone.from_rays(rays, n=n, lines=lines))
        else:
            eqs = _random_vectors(rng, n, rng.choice((0, 0, 1)))
            cases.append(Cone.from_ineqs(
                _random_vectors(rng, n, rng.randint(0, 6)), n=n, eqs=eqs))
    return cases


def test_incidence_faces_match_dd_oracle():
    cases = _face_lattice_cases()
    assert any(c.lines() and c.ineqs() for c in cases)
    assert any(c.eqs() and c.ineqs() for c in cases)
    for c in cases:
        faces = c.faces()
        keys = [f.key() for f in faces]
        assert faces[0] is c and len(set(keys)) == len(keys)
        assert set(keys) == {f.key() for f in _dd_faces(c)}, c
        # one facet per inequality, in ineqs() order, each one face object
        facets = c.facets()
        assert len(facets) == len(c.ineqs())
        assert [f.key() for f in facets] == [f.key() for f in _dd_facets(c)]
        assert all(any(f is g for g in faces) for f in facets)
        for f in faces:
            # the preset V-rep is canonical, and its H-rep and dim are right
            rebuilt = Cone.from_rays(f.rays(), n=c.n, lines=f.lines())
            assert rebuilt.key() == f.key()
            assert (rebuilt.ineqs(), rebuilt.eqs()) == (f.ineqs(), f.eqs())
            gens = list(f.rays()) + list(f.lines())
            assert f.dim() == (rank(gens) if gens else 0)
        for f, g in itertools.product(faces, repeat=2):
            assert f.is_face_of(g) == _dd_is_face_of(f, g), (f, g)


def test_is_face_of_matches_dd_oracle_on_non_faces():
    quadrant = Cone.from_rays([(1, 0), (0, 1)])
    diagonal = Cone.from_rays([(1, 1)])
    assert not diagonal.is_face_of(quadrant)
    assert not _dd_is_face_of(diagonal, quadrant)
    outside = Cone.from_rays([(1, 0), (-1, 1)])
    for a, b in itertools.permutations([quadrant, diagonal, outside], 2):
        assert a.is_face_of(b) == _dd_is_face_of(a, b)
    cases = _face_lattice_cases()
    for c1, c2 in itertools.product(cases[:30], repeat=2):
        if c1.n == c2.n:
            for f in c1.faces():
                assert f.is_face_of(c2) == _dd_is_face_of(f, c2), (f, c2)


# -- fan validation over maximal cones against all pairs ---------------------

def _validate_all_pairs(fan):
    """Oracle: face closure plus the intersection test on every pair."""
    problems = []
    for c in fan:
        for f in c.facets():
            if f not in fan:
                problems.append(("missing face", c))
    for c1, c2 in itertools.combinations(list(fan), 2):
        i = c1.intersect(c2)
        if not (i.is_face_of(c1) and i.is_face_of(c2)):
            problems.append(("intersection", c1, c2))
    return problems


def _validation_cases():
    """(fan, support) pairs; the support is given for the valid fans."""
    quadrant = Cone.from_rays([(1, 0), (0, 1)])
    cases = [(sigma_upper_fan(q, d, k), cone_Cd(d))
             for q, d, k in [(2, 3, 2), (3, 3, 3), (2, 4, 2), (3, 4, 2),
                             (2, 4, 3)]]
    a = Fan([Cone.from_rays([(1, 0), (1, 1)]), Cone.from_rays([(1, 1), (0, 1)])])
    b = Fan([Cone.from_rays([(1, 0), (1, 2)]), Cone.from_rays([(1, 2), (0, 1)])])
    cases.append((a.join(b), quadrant))
    cases.append((sigma_upper_fan(2, 4, 2).join(sigma_upper_fan(3, 4, 2)),
                  cone_Cd(4)))
    for rays in ([(1, 0), (1, 4)], [(1, 0), (2, 5)],
                 [(1, 0, 0), (0, 1, 0), (1, 2, 7)]):
        c = Cone.from_rays(rays)
        cases.append((Fan([c]).regular_refinement(), c))
    cases.append((Fan([Cone.from_rays([(1, 0), (1, 2)]),
                       Cone.from_rays([(1, 1), (0, 1)])]), None))
    cases.append((Fan([quadrant, Cone.from_rays([(1, 1)])]), None))
    return cases


def test_validate_matches_all_pairs_oracle():
    rejected = 0
    for fan, support in _validation_cases():
        got = fan.validate()
        assert (got == []) == (_validate_all_pairs(fan) == [])
        if support is not None:
            assert fan.validate(support) == []
        rejected += got != []
    assert rejected == 2  # the overlapping cones, the ray inside a quadrant


def test_validate_reports_each_support_violation():
    quadrant = Cone.from_rays([(1, 0), (0, 1)])
    for cones, message in (
            ([[(1, 0), (-1, 1)]], "not contained in the support"),
            ([[(1, 1)]], "has dim 1 != 2"),
            # a gap between (2, 1) and (1, 2): both walls are interior
            ([[(1, 0), (2, 1)], [(1, 2), (0, 1)]],
             "shared by 0 other cones")):
        fan = Fan([Cone.from_rays(rays) for rays in cones])
        assert fan.validate() == [], cones
        problems = fan.validate(quadrant)
        assert problems and all(message in p for p in problems), problems


def _maximal_all_pairs(fan):
    """Oracle: the cones of the fan contained in no other, in fan order."""
    all_cones = list(fan)
    return [c for c in all_cones
            if not any(o is not c and o.contains_cone(c) and o.key() != c.key()
                       for o in all_cones)]


def _assert_maximal_matches_oracle(fan):
    assert [c.key() for c in fan.maximal_cones()] == \
        [c.key() for c in _maximal_all_pairs(fan)]


def test_maximal_cones_match_all_pairs_oracle(monkeypatch):
    for fan, _ in _validation_cases():
        _assert_maximal_matches_oracle(fan)
    steps = []
    subdivide = Fan.stellar_subdivide

    def recorded(self, w):
        steps.append(subdivide(self, w))
        return steps[-1]

    monkeypatch.setattr(Fan, "stellar_subdivide", recorded)
    for rays in ([(1, 0), (1, 4)], [(1, 0), (2, 5)],
                 [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                 [(1, 0, 0), (0, 1, 0), (1, 2, 7)]):
        Fan([Cone.from_rays(rays)]).regular_refinement()
    assert len(steps) > 10
    for fan in steps:
        _assert_maximal_matches_oracle(fan)


# -- lattice points of fundamental parallelepipeds ----------------------------

def _bounding_box_parallelepiped_points(rays, n):
    """Oracle: every integer point of the bounding box of the half-open
    parallelepiped of independent rays, kept when its exact ray
    coordinates t (solved on m independent coordinates, then checked on
    all n) satisfy 0 <= t_i < 1."""
    m = len(rays)
    assert rank(rays) == m
    verts = [[sum(rays[i][j] for i in range(m) if mask >> i & 1)
              for j in range(n)] for mask in range(1 << m)]
    lo = [min(v[j] for v in verts) for j in range(n)]
    hi = [max(v[j] for v in verts) for j in range(n)]
    _, idx = rref(rays)
    sub_inv = mat_inv([[Fraction(rays[i][j]) for i in range(m)] for j in idx])
    out = []
    for x in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        t = [sum(sub_inv[i][j] * x[idx[j]] for j in range(m))
             for i in range(m)]
        if any(ti < 0 or ti >= 1 for ti in t):
            continue
        if all(sum(rays[i][j] * t[i] for i in range(m)) == x[j]
               for j in range(n)):
            out.append(tuple(x))
    return out


def _random_independent_rays(rng, m, n, bound):
    while True:
        rays = [tuple(rng.randint(-bound, bound) for _ in range(n))
                for _ in range(m)]
        if rank(rays) == m:
            return rays


def test_parallelepiped_points_match_bounding_box_oracle():
    rng = random.Random(20201)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        rays = _random_independent_rays(rng, m, n, 2 if n == 4 else 3)
        pts = _parallelepiped_points(rays)
        assert set(pts) == set(_bounding_box_parallelepiped_points(rays, n))
        assert len(set(pts)) == len(pts)
        # one point per class of (span & Z^n) / Z^m rays: the product of
        # the Smith diagonal, which is also the gcd of the maximal minors
        _, S, _ = smith_normal_form(rays)
        index = 1
        for i in range(m):
            index *= S[i][i]
        minors = 0
        for cols in itertools.combinations(range(n), m):
            minors = math.gcd(minors, det([[r[c] for c in cols] for r in rays]))
        assert len(pts) == index == minors, rays


def test_parallelepiped_points_reject_dependent_rays_and_the_cap(monkeypatch):
    with pytest.raises(ValueError, match="independent"):
        _parallelepiped_points([(1, 2), (2, 4)])
    with pytest.raises(ValueError, match="independent"):
        _parallelepiped_points([(1, 0), (0, 1), (1, 1)])
    # the cap applies to the exact count, before anything is enumerated
    monkeypatch.setattr(cones, "_BOX_CAP", 12)
    assert len(_parallelepiped_points([(1, 0, 0), (1, 12, 0)])) == 12
    for rays in ([(1, 0, 0), (1, 13, 0)], [(2, 0), (0, 7)]):
        with pytest.raises(ValueError, match="lattice points"):
            _parallelepiped_points(rays)
    with pytest.raises(ValueError, match="lattice points"):
        dual_monoid_hilbert_basis(Cone.from_rays([(1, 0), (1, 13)]))
    with pytest.raises(ValueError, match="lattice points"):
        Fan([Cone.from_rays([(1, 0), (1, 13)])]).regular_refinement()


def _monoid_oracle(gens, lineality, dual, ell):
    """Membership in the monoid generated by gens and +/- lineality:
    subtract generators while staying in the dual cone until ell, which
    is positive on every generator, reaches 0; there the point must be an
    integer combination of the lineality basis."""
    memo = {}

    def member(x):
        if x not in memo:
            if sum(a * b for a, b in zip(ell, x)) == 0:
                if not lineality:
                    memo[x] = not any(x)
                else:
                    c = solve([list(col) for col in zip(*lineality)], x)
                    memo[x] = c is not None and all(
                        Fraction(v).denominator == 1 for v in c)
            else:
                memo[x] = any(
                    dual.contains(y) and member(y)
                    for y in (tuple(a - b for a, b in zip(x, g))
                              for g in gens))
        return memo[x]

    return member


def _hilbert_cases():
    rng = random.Random(777)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 3)
        rays = _random_vectors(rng, n, rng.randint(1, n + 1), -2, 3) \
            or [(1,) * n]
        lines = []
        if rng.random() < 0.4:
            lines = _random_vectors(rng, n, 1, -2, 3)
        cases.append(Cone.from_rays(rays, n=n, lines=lines))
    return cases


def test_hilbert_basis_properties_random():
    cases = _hilbert_cases()
    assert any(c.lines() for c in cases) and any(c.is_pointed() for c in cases)
    for c in cases:
        data = dual_monoid_hilbert_basis(c)
        gens, lin = data["generators"], data["lineality"]
        everything = set(data["all"])
        assert len(everything) == len(data["all"])
        # every generator pairs nonnegatively with the cone
        for g in data["all"]:
            assert all(sum(a * b for a, b in zip(g, r)) >= 0 for r in c.rays())
            assert all(sum(a * b for a, b in zip(g, l)) == 0 for l in c.lines())
        # no generator is a sum of two others
        for a, b in itertools.combinations_with_replacement(data["all"], 2):
            assert tuple(x + y for x, y in zip(a, b)) not in everything, c
        # every half-open point of every simplex of dual generators lies in
        # the monoid the generators span
        dual = c.dual()
        ell = [sum(col) for col in zip(*c.rays())] if c.rays() else [0] * c.n
        member = _monoid_oracle(gens, lin, dual, ell)
        dgens = list(dual.rays()) + list(dual.lines()) \
            + [tuple(-x for x in l) for l in dual.lines()]
        k = rank(dgens) if dgens else 0
        for simplex in itertools.combinations(dgens, k):
            if k and rank(simplex) == k:
                for p in _bounding_box_parallelepiped_points(
                        list(simplex), c.n):
                    assert member(p), (c, p)
