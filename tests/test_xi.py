"""Comparison fans, the flattening and rescaling maps, linearization."""

import itertools
import random
from fractions import Fraction

import pytest

import drinfan.epsilon as eps_mod
import drinfan.xi as xi_mod
from drinfan.cones import Cone, Fan
from drinfan.epsilon import epsilon_closed, epsilon_hat, epsilon_oracle
from drinfan.linalg import frac_vec, mat_inv, mat_mul, mat_vec, solve
from drinfan.points import ClassPoint
from drinfan.xi import (LinearizationError, cone_Cd, contains_class_point,
                        delta_tilde, interior_samples, linearize_xi, pi_eval,
                        pi_family_eval, sigma_k_fan, sigma_kk_map,
                        sigma_upper_fan, theta_vector, xi_eval,
                        xi_eval_coords)

F = Fraction


def test_cone_Cd():
    c = cone_Cd(3)
    assert set(c.rays()) == {(0, 1), (1, 1)}
    c4 = cone_Cd(4)
    assert all(c4.contains(p) for p in [(0, 0, 1), (1, 2, 3)])
    assert not c4.contains((2, 1, 3))


def test_sigma_upper_counts_d3():
    for q in (2, 3):
        for k in (1, 2, 3):
            fan = sigma_upper_fan(q, 3, k)
            assert len(fan.maximal_cones()) == k


def test_sigma_1_equals_faces_of_Cd():
    for d in (2, 3, 4):
        fan = sigma_upper_fan(2, d, 1)
        faces = Fan([cone_Cd(d)])
        assert {c.key() for c in fan} == {c.key() for c in faces}


def test_theta_on_standard_cones():
    # sigma = {s1 <= s2 <= 2 s1} in C_3 at k=2: theta = (1, 1)
    sigma = Cone.from_rays([(1, 1), (1, 2)])
    assert theta_vector(2, 2, sigma) == (1, 1)
    # sigma = {2 s1 <= s2}: theta = (1, 2)
    sigma2 = Cone.from_rays([(0, 1), (1, 2)])
    assert theta_vector(2, 2, sigma2) == (1, 2)


def test_worked_example_pi_values():
    # the flattening map on the chain cone {2s1<=s2<=s3<=2s2} in C_4
    sigma = Cone.from_ineqs([[1, 0, 0], [-2, 1, 0], [0, -1, 1], [0, 2, -1]],
                            n=3)
    assert set(sigma.rays()) == {(1, 2, 2), (1, 2, 4), (0, 1, 1), (0, 1, 2)}
    assert theta_vector(2, 2, sigma) == (1, 2, 2)
    p = ClassPoint.from_coords([1, 2, 4])
    assert pi_eval(2, 2, sigma, p) == (F(1), F(8, 3), F(32, 3))
    p2 = ClassPoint.from_coords([0, 1, 2])
    assert pi_eval(2, 2, sigma, p2) == (F(0), F(1), F(4))


def test_worked_example_xi_value():
    assert xi_eval_coords(2, 1, [1, 2, 4]) == (F(1, 2), F(1), F(3))


def test_xi_as_pi_plus_delta():
    # coordinate formula: xi_i = pi-family value at (i, i) + delta-tilde_i
    p = ClassPoint.from_coords([1, 2, 4])
    img = xi_eval(2, 1, p)
    for i in range(1, 4):
        v = pi_family_eval(2, 1, i, i, p) + delta_tilde(2, p, i)
        assert v == img.values[i - 1]


def test_linearization_certificates_small():
    rng = random.Random("test-linearize")
    for q in (2, 3):
        for d in (2, 3):
            for k in (1, 2):
                for sigma in sigma_upper_fan(q, d, k).maximal_cones():
                    linearize_xi(q, sigma, k, k, rng)  # raises on failure


def test_sigma_k_fan_valid():
    for (q, d, k) in [(2, 3, 1), (2, 3, 2), (2, 4, 1), (3, 3, 2)]:
        fan, pieces = sigma_k_fan(q, d, k)
        support = cone_Cd(d)
        assert fan.validate(support) == []
        assert len(pieces) == len(sigma_upper_fan(q, d, k).maximal_cones())


def test_sigma_kk_map_pointwise():
    # the transition map satisfies xi_{k,k'}(xi_k(s)) = xi_{k'}(s)
    rng = random.Random("transition-check")
    for (q, k, kp) in [(2, 1, 2), (2, 2, 1), (3, 1, 2)]:
        m = sigma_kk_map(q, 3, k, kp)
        big = sigma_upper_fan(q, 3, max(k, kp))
        for sigma in big.maximal_cones():
            for s in interior_samples(sigma, rng, 5):
                a = xi_eval_coords(q, k, s)
                b = xi_eval_coords(q, kp, s)
                assert tuple(m.eval(a)) == tuple(b)


def test_ex_transition_pieces_d3():
    m = sigma_kk_map(2, 3, 1, 2)
    ray_sets = sorted(sorted(c.rays()) for c, _ in m.pieces)
    assert ray_sets == [[(0, 1), (1, 2)], [(1, 1), (1, 2)]]


def test_image_of_chain_cone_under_xi2():
    # image of {2s1<=s2<=s3<=2s2} under the level-2 rescaling map
    from drinfan.xi import _image_cone
    sigma = Cone.from_ineqs([[1, 0, 0], [-2, 1, 0], [0, -1, 1], [0, 2, -1]],
                            n=3)
    img = _image_cone(2, 2, sigma)
    expected = Cone.from_ineqs(
        [[1, 0, 0], [-2, 1, 0], [0, -1, 1], [-4, 4, -1]], n=3)
    assert img == expected


def test_contains_class_point_rational_agrees_with_cone():
    rng = random.Random(5)
    fan = sigma_upper_fan(2, 3, 2)
    pts = [ClassPoint.from_coords(sorted((F(rng.randint(0, 8)),
                                          F(rng.randint(0, 8)))))
           for _ in range(30)]
    for sigma in fan:
        for p in pts:
            want = sigma.contains(p.values)
            assert contains_class_point(2, 2, sigma, p) == want


def test_irrational_point_membership():
    # (0, sqrt(2)) lies in {s1 = 0} but not in full-dimensional cones' interior
    p = ClassPoint(3, (F(0), F(2)), pow_exponent=2)
    boundary = Cone.from_rays([(0, 1)])
    assert contains_class_point(2, 1, boundary, p)
    inner = Cone.from_rays([(1, 1), (1, 2)])
    assert not contains_class_point(2, 2, inner, p)


def test_two_term_sign_uses_the_stored_power():
    # (1, sqrt(3)) stored as squares (1, 3): 2 * 1 - sqrt(3) > 0 is read as
    # 2^2 * 1 > 3, while 2 * 1 < 3 would put the point above s_2 = 2 s_1
    p = ClassPoint(3, (F(1), F(3)), pow_exponent=2)
    assert p.sign_two_term(2, 1, 1, 2) == 1
    assert p.sign_two_term(2, 0, 1, 2) == -1
    below = Cone.from_rays([(1, 1), (1, 2)])  # s_1 <= s_2 <= 2 s_1
    above = Cone.from_rays([(0, 1), (1, 2)])  # 2 s_1 <= s_2
    assert contains_class_point(2, 2, below, p)
    assert not contains_class_point(2, 2, above, p)


# -- Sigma^(k) by refinement against the sign-assignment enumeration ---------

def _sign_sequences(k):
    """Sign vectors of h -> sign(q^h s_j - s_i), h = 0..k-1: nondecreasing
    in {-1, 0, +1} with at most one zero (2k+1 of them)."""
    seqs = [tuple([-1] * minus + [1] * (k - minus)) for minus in range(k + 1)]
    seqs += [tuple([-1] * minus + [0] + [1] * (k - 1 - minus))
             for minus in range(k)]
    return seqs


def _enumerated_upper_fan(q, d, k):
    """Oracle: one cone of C_d per sign assignment on the comparisons."""
    n = d - 1
    base = cone_Cd(d)
    pairs = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    if not pairs:
        return Fan([base])
    fan = Fan()
    for assignment in itertools.product(_sign_sequences(k), repeat=len(pairs)):
        ineqs = [list(a) for a in base.ineqs()]
        eqs = []
        for (i, j), seq in zip(pairs, assignment):
            for h, sign in enumerate(seq):
                vec = [0] * n
                vec[j - 1] = q ** h
                vec[i - 1] = -1
                if sign > 0:
                    ineqs.append(vec)
                elif sign < 0:
                    ineqs.append([-x for x in vec])
                else:
                    eqs.append(vec)
        fan.add(Cone.from_ineqs(ineqs, n=n, eqs=eqs))
    return fan


def test_sigma_upper_matches_enumeration():
    cases = [(q, d, k) for q in (2, 3) for d in (3, 4) for k in (1, 2, 3)]
    for q, d, k in cases + [(2, 5, 1)]:
        built = sigma_upper_fan(q, d, k)
        oracle = _enumerated_upper_fan(q, d, k)
        assert set(built.cones) == set(oracle.cones), (q, d, k)


def test_sigma_upper_d5_k2_size():
    fan = sigma_upper_fan(2, 5, 2)
    assert len(fan) == 112
    assert fan.validate(cone_Cd(5)) == []


def test_sigma_upper_d6_k1_builds_and_validates():
    fan = sigma_upper_fan(2, 6, 1)
    assert len(fan) == 2 ** 5  # the faces of the simplicial cone C_6
    assert [c.key() for c in fan.maximal_cones()] == [cone_Cd(6).key()]
    assert fan.validate(cone_Cd(6)) == []


def test_sigma_upper_d7_k1_validates():
    fan = sigma_upper_fan(2, 7, 1)
    assert len(fan) == 2 ** 6
    assert fan.validate(cone_Cd(7)) == []


def test_sigma_upper_d6_k2_size_and_validation():
    fan = sigma_upper_fan(2, 6, 2)
    assert len(fan) == 568
    assert len(fan.maximal_cones()) == 42
    assert fan.validate(cone_Cd(6)) == []


# -- one-pass linearization against the per-coordinate procedure -------------

def _pi_per_coordinate(q, theta, point):
    """pi without the kernel: coordinate i >= r is epsilon_hat over the
    prefix p_r..p_{theta(i)-1} at p_i, each from a fresh weight list."""
    d, r = point.d, point.stratum()
    p = point.values if r == d else point.power_values(r)
    return tuple([F(0)] * (r - 1) + [
        epsilon_hat(q, r, list(p[r - 1:max(theta[i - 1] - 1, r - 1)]),
                    p[i - 1])
        for i in range(r, d)])


def _linearize_per_coordinate(q, sigma, base_k, target_k, rng,
                              certify_points=5):
    """Oracle: one ClassPoint per evaluation and one solve per coordinate,
    drawing the same samples from rng in the same order; pi comes from
    the per-coordinate formula, xi from xi_eval, neither from the kernel."""
    n = sigma.n
    theta = theta_vector(q, base_k, sigma)
    pts = interior_samples(sigma, rng, 2 * n + 2)
    A = [list(_pi_per_coordinate(q, theta, ClassPoint.from_coords(p)))
         for p in pts]
    B = [list(xi_eval(q, target_k, ClassPoint.from_coords(p)).values)
         for p in pts]
    rows = []
    for i in range(n):
        w = solve(A, [b[i] for b in B])
        if w is None:
            raise LinearizationError(
                f"no linear factorization for coordinate {i + 1} on {sigma!r}")
        rows.append(tuple(w))
    M = tuple(rows)
    check_pts = [frac_vec(g) for g in sigma.rays()]
    check_pts += interior_samples(sigma, rng, certify_points)
    for p in check_pts:
        cp = ClassPoint.from_coords(p)
        lhs = xi_eval(q, target_k, cp).values
        rhs = mat_vec(M, _pi_per_coordinate(q, theta, cp))
        if tuple(lhs) != tuple(rhs):
            raise LinearizationError(
                f"linearization certificate failed at {p} on {sigma!r}")
    return M


LEVEL_CASES = [(q, d, k) for q in (2, 3) for d in (3, 4) for k in (1, 2, 3)]


def test_sigma_k_fan_matches_per_coordinate_oracle():
    for q, d, k in LEVEL_CASES:
        _, pieces = sigma_k_fan(q, d, k, seed=3)
        rng = random.Random(f"sigma_k:3:{q}:{d}:{k}")
        maximal = sigma_upper_fan(q, d, k).maximal_cones()
        assert [p["source"] for p in pieces] == maximal
        for piece, sigma in zip(pieces, maximal):
            want = _linearize_per_coordinate(q, sigma, k, k, rng)
            assert piece["matrix"] == want, (q, d, k, sigma)


def test_sigma_kk_map_matches_per_coordinate_oracle():
    for q, d, k in LEVEL_CASES:
        for kp in (1, 2, 3):
            m = sigma_kk_map(q, d, k, kp, seed=5)
            rng = random.Random(f"sigma_kk:5:{q}:{d}:{k}:{kp}")
            K = max(k, kp)
            maximal = sigma_upper_fan(q, d, K).maximal_cones()
            assert len(m.pieces) == len(maximal)
            for (_, trans), sigma in zip(m.pieces, maximal):
                mk = _linearize_per_coordinate(q, sigma, K, k, rng)
                mkp = _linearize_per_coordinate(q, sigma, K, kp, rng)
                want = tuple(tuple(row) for row in mat_mul(mkp, mat_inv(mk)))
                assert trans == want, (q, d, k, kp, sigma)


def _outcome(f, *args):
    try:
        return f(*args)
    except LinearizationError as exc:
        return str(exc)


def test_linearization_failures_match_per_coordinate_oracle():
    # a cone of Sigma^(k) linearized towards a higher level, or all of C_d,
    # can have no linear factorization; both sides must then name the same
    # first coordinate (2, 3 and 4 all occur here) or the same certificate
    # point
    cones = [(q, d, k, sigma) for q in (2, 3) for d in (3, 4, 5)
             for k in (1, 2)
             for sigma in sigma_upper_fan(q, d, k).maximal_cones()]
    cones += [(q, 4, 2, cone_Cd(4)) for q in (2, 3)]
    messages = set()
    for q, d, k, sigma in cones:
        for tk in (1, 2, 3):
            got = _outcome(linearize_xi, q, sigma, k, tk,
                           random.Random(f"fail:{q}:{d}:{k}:{tk}"))
            want = _outcome(_linearize_per_coordinate, q, sigma, k, tk,
                            random.Random(f"fail:{q}:{d}:{k}:{tk}"))
            assert got == want, (q, d, k, tk, sigma)
            if isinstance(got, str):
                messages.add(got.split(" on ")[0][:40])
    assert {f"no linear factorization for coordinate {i}"
            for i in (2, 3, 4)} <= messages
    assert "linearization certificate failed at (Fra" in messages
    with pytest.raises(LinearizationError, match="for coordinate 2 on"):
        linearize_xi(2, cone_Cd(4), 2, 2, random.Random(0))


def _solve_with_entry_raised(j, i):
    """solve, but entry (j, i) of a matrix solution X is raised by one."""
    def perturbed(a, b):
        x = solve(a, b)
        if x is None or not isinstance(b[0], (list, tuple)):
            return x
        x = [list(row) for row in x]
        x[j][i] += 1
        return tuple(tuple(row) for row in x)
    return perturbed


def test_certificate_rejects_a_perturbed_matrix(monkeypatch):
    # the boundary ray s_1 = 0 of C_3: coordinate 1 of xi and of pi
    # vanishes, so row 1 of M is all zero until X[1][0] is raised
    ray = Cone.from_rays([(0, 1)], n=2)
    M = linearize_xi(2, ray, 1, 2, random.Random(0))
    assert M[0] == (0, 0) and any(M[1])
    cases = [(ray, 1, 2, 1, 0)]
    cases += [(sigma, 2, 1, j, i)
              for sigma in sigma_upper_fan(2, 3, 2).maximal_cones()
              for j in range(2) for i in range(2)]
    for sigma, base_k, target_k, j, i in cases:
        monkeypatch.setattr(xi_mod, "solve", _solve_with_entry_raised(j, i))
        with pytest.raises(LinearizationError,
                           match="linearization certificate failed at "):
            linearize_xi(2, sigma, base_k, target_k, random.Random(0))
        monkeypatch.undo()
        linearize_xi(2, sigma, base_k, target_k, random.Random(0))


def _level_cases(q, k):
    """Every xi entry point that takes q and a level, at (q, k), on the
    first maximal cone of Sigma^(2) for d = 4 and a point inside it."""
    sigma = sigma_upper_fan(2, 4, 2).maximal_cones()[0]
    p = ClassPoint.from_coords([1, 100, 1000])
    return (lambda: xi_eval(q, k, p),
            lambda: xi_eval_coords(q, k, [0, 0]),
            lambda: sigma_kk_map(q, 3, k, 1),
            lambda: sigma_kk_map(q, 3, 1, k),
            lambda: linearize_xi(q, sigma, k, 1, random.Random(0)),
            lambda: linearize_xi(q, sigma, 1, k, random.Random(0)),
            lambda: contains_class_point(q, k, sigma, p),
            lambda: theta_vector(q, k, sigma),
            lambda: pi_eval(q, k, sigma, p),
            lambda: pi_family_eval(q, k, 1, 1, p))


def test_levels_below_one_rejected():
    sigma = cone_Cd(3)
    p = ClassPoint.from_coords([1, 2])
    for call in (lambda: xi_eval(2, 0, p),
                 lambda: xi_eval(2, -1, p),
                 lambda: xi_eval_coords(2, 0, [0, 0]),
                 lambda: sigma_kk_map(2, 3, 0, 1),
                 lambda: sigma_kk_map(2, 3, 1, 0),
                 lambda: linearize_xi(2, sigma, 0, 1, random.Random(0)),
                 lambda: linearize_xi(2, sigma, 1, 0, random.Random(0)),
                 *_level_cases(2, 0), *_level_cases(2, -1)):
        with pytest.raises(ValueError, match="k must be >= 1"):
            call()
    # contains_class_point put the point inside at k = 0; at k = 2 it is not
    assert not _level_cases(2, 2)[6]()


def test_q_not_a_prime_power_rejected():
    for call in _level_cases(6, 1):
        with pytest.raises(ValueError, match="q = 6 is not a prime power"):
            call()


def test_coordinate_indices_outside_the_point_rejected():
    # i = 0 used to read s_3 through p[-1], i = 7 the value at i = 3 (a
    # slice past the end) and i = 4 raised IndexError
    p = ClassPoint.from_coords([1, 2, 4])
    for call, name, i in ((lambda: pi_family_eval(2, 1, 0, 0, p), "i", 0),
                          (lambda: pi_family_eval(2, 1, 1, 7, p), "iprime", 7),
                          (lambda: pi_family_eval(2, 1, 4, 4, p), "i", 4),
                          (lambda: pi_family_eval(2, 1, 3, 0, p), "iprime", 0),
                          (lambda: delta_tilde(2, p, 7), "i", 7),
                          (lambda: delta_tilde(2, p, 0), "i", 0),
                          (lambda: delta_tilde(2, p, -1), "i", -1)):
        with pytest.raises(ValueError,
                           match=rf"^{name} = {i} is outside 1\.\.3$"):
            call()
    assert pi_family_eval(2, 1, 1, 3, p) == F(-43, 30)
    assert delta_tilde(2, p, 3) == F(29, 15)


def test_class_point_checks_survive_the_fraction_fast_path():
    for coords in ([F(-1), F(2)], [-1, 2], [F(3), F(2)], [3, 2]):
        with pytest.raises(ValueError):
            ClassPoint.from_coords(coords)
        with pytest.raises(ValueError):
            ClassPoint(3, tuple(coords))
    with pytest.raises(ValueError):
        ClassPoint(4, (F(1), F(2)))
    with pytest.raises(ValueError):
        ClassPoint.from_coords([F(1), F(2)], d=4)
    p = ClassPoint.from_coords([1, F(3, 2)])
    assert p.values == (F(1), F(3, 2))
    assert all(type(v) is Fraction for v in p.values)


def _seeded_class_points(seed, count):
    """(q, k, point) with q in {2, 3}, d in {3, 4, 5}, strata r >= 1 and
    stored powers 1, 2 or 3 (the stratum is a multiple of the stored
    power, so a power-2 point has stratum 2 or 4, a power-3 point 3)."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice([2, 3])
        k = rng.randint(1, 3)
        d = rng.choice([3, 4, 5])
        rho = rng.choice([1, 2, 3] if d > 3 else [1, 2])
        if rho == 1:
            r = rng.randint(1, d - 1)
        else:
            r = rng.choice([x for x in (rho, 2 * rho) if x < d])
        tail = sorted(F(rng.randint(1, 90), rng.randint(1, 7))
                      for _ in range(d - r))
        if rng.random() < 0.3:  # repeated values: weakly increasing
            tail[-1] = tail[0]
            tail.sort()
        yield q, k, ClassPoint(d, (F(0),) * (r - 1) + tuple(tail), rho)


def test_xi_and_pi_from_one_chain_match_per_coordinate_calls():
    strata = set()
    for q, k, point in _seeded_class_points(1313, 120):
        d, r = point.d, point.stratum()
        strata.add((r, point.pow_exponent))
        p = point.power_values(r)
        weights = list(p[r - 1:])  # a fresh list: no shared chain
        scale = F(q) ** (-k * r)
        want = [F(0)] * (r - 1) + [
            epsilon_closed(q, r, weights, scale * p[i - 1])
            for i in range(r, d)]
        oracle = [F(0)] * (r - 1) + [
            epsilon_oracle(q, r, weights, scale * p[i - 1])
            for i in range(r, d)]
        assert list(xi_eval(q, k, point).values) == want == oracle
        theta = tuple(random.Random(f"{point}").randint(1, i)
                      for i in range(1, d))
        want = [F(0)] * (r - 1) + [
            epsilon_hat(q, r, list(p[r - 1:max(theta[i - 1] - 1, r - 1)]),
                        p[i - 1])
            for i in range(r, d)]
        assert list(pi_eval(q, k, cone_Cd(d), point, theta)) == want
    assert {(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (4, 2)} <= strata


def test_seeded_class_points_draw_every_stored_power():
    drawn = {(p.stratum(), p.pow_exponent)
             for _, _, p in _seeded_class_points(1313, 120)}
    assert {(2, 2), (4, 2), (3, 3)} <= drawn


def test_xi_eval_checks_weights_once_per_point(monkeypatch):
    # the tracer's epsilon.closed metric needs one epsilon_closed call per
    # coordinate; the weights behind them are checked once per point
    closed, checked = [], []
    real_closed, real_check = xi_mod.epsilon_closed, eps_mod._check_args
    monkeypatch.setattr(xi_mod, "epsilon_closed",
                        lambda *a: closed.append(1) or real_closed(*a))
    monkeypatch.setattr(eps_mod, "_check_args",
                        lambda *a: checked.append(1) or real_check(*a))
    for r in range(1, 5):
        point = ClassPoint.from_coords([0] * (r - 1) + [1, 2, 5, 7][r - 1:])
        closed.clear(), checked.clear()
        xi_eval(2, 1, point)
        assert (len(closed), len(checked)) == (5 - r, 1), r
    # pi_eval runs the kernel on the point's checked powers, with no
    # _check_args call; xi_eval checks them once
    point = ClassPoint.from_coords([1, 3, 4, 11])
    checked.clear()
    pi_eval(2, 2, cone_Cd(5), point)
    xi_eval(2, 2, point)
    assert len(checked) == 1


# -- the integer point kernel of the linearization against its references ----

def _kernel_cases(seed, count):
    """(q, coords, theta, levels): q in {2, 3, 4}, d from 2 to 9, every
    stratum r (r = d is the origin), repeated and non-integer coordinates,
    a random index map and one to three levels from 1..3."""
    rng = random.Random(seed)
    shapes = [(q, d, r) for q in (2, 3, 4) for d in range(2, 10)
              for r in range(1, d + 1)]
    for m in range(count):
        q, d, r = shapes[m % len(shapes)]
        tail = [F(rng.randint(1, 60), rng.choice((1, 1, 2, 3, 7)))
                for _ in range(d - r)]
        if rng.random() < 0.4 and len(tail) > 1:  # a repeated value
            i = rng.randrange(len(tail) - 1)
            tail[i + 1] = tail[i]
        coords = (F(0),) * (r - 1) + tuple(sorted(tail))
        theta = tuple(rng.randint(1, i) for i in range(1, d))
        levels = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        yield q, coords, theta, levels


def test_point_kernel_matches_pi_eval_and_xi_eval():
    # pi_eval runs the kernel too, so pi is also checked against the
    # per-coordinate epsilon_hat formula
    seen = set()
    for q, coords, theta, levels in _kernel_cases(2718, 600):
        point = ClassPoint.from_coords(coords)
        pi, xis = xi_mod._pi_xi(q, theta, levels, coords)
        assert pi == _pi_per_coordinate(q, theta, point), coords
        assert pi == pi_eval(q, 1, cone_Cd(point.d), point, theta), coords
        assert xis == [xi_eval(q, t, point).values for t in levels], coords
        assert all(type(v) is Fraction for v in pi + sum(xis, ()))
        seen.add((q, point.d, point.stratum()))
        seen.add(("non-integer", any(c.denominator > 1 for c in coords)))
        seen.add(("repeated", len(set(coords[point.stratum() - 1:]))
                  < point.d - point.stratum()))
        seen.add(("levels", len(set(levels))))
    assert {(q, d, r) for q in (2, 3, 4) for d in range(2, 10)
            for r in range(1, d + 1)} <= seen
    assert {("non-integer", True), ("repeated", True), ("levels", 3)} <= seen


def test_point_kernel_rejects_points_outside_the_cone():
    for coords in ([F(-1), F(2)], [F(0), F(-1, 2), F(3)], [F(3), F(2)],
                   [F(0), F(5, 2), F(2)]):
        with pytest.raises(ValueError) as want:
            ClassPoint.from_coords(coords)
        with pytest.raises(ValueError) as got:
            xi_mod._pi_xi(2, tuple(range(1, len(coords) + 1)), (1,), coords)
        assert str(got.value) == str(want.value), coords


def test_interior_samples_are_integer_points_of_the_cone():
    # the kernel scales them over a denominator of 1
    rng = random.Random(0)
    for sigma in sigma_upper_fan(3, 4, 2).maximal_cones():
        theta = theta_vector(3, 2, sigma)
        for p in interior_samples(sigma, rng, 4):
            assert all(type(x) is int for x in p) and sigma.contains(p)
            assert (xi_mod._pi_xi(3, theta, (1,), p)
                    == xi_mod._pi_xi(3, theta, (1,), frac_vec(p)))
    assert interior_samples(Cone.from_rays([], n=2), rng, 2) == [(0, 0)] * 2


def test_linearize_xi_checks_q():
    # the point kernel does not check q; linearize_xi does, as xi_eval did
    for q, message in ((6, "not a prime power"), (1, "at least 2")):
        with pytest.raises(ValueError, match=message):
            linearize_xi(q, cone_Cd(3), 1, 1, random.Random(0))


def test_sigma_kk_map_evaluates_one_sample_set_per_cone(monkeypatch):
    # both levels of xi_{k,k'} come from one kernel call per point:
    # (2n+2) samples + every ray + 5 fresh points per maximal cone
    calls = []
    real = xi_mod._pi_xi
    monkeypatch.setattr(xi_mod, "_pi_xi",
                        lambda *a: calls.append(a[2]) or real(*a))
    for q, d, k, kp in ((2, 4, 1, 2), (3, 3, 2, 1)):
        calls.clear()
        sigma_kk_map(q, d, k, kp)
        maximal = sigma_upper_fan(q, d, max(k, kp)).maximal_cones()
        assert len(calls) == sum(2 * c.n + 2 + len(c.rays()) + 5
                                 for c in maximal)
        assert set(calls) == {(k, kp)}
