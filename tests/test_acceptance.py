"""End-to-end acceptance checks.

Each test here is an independent top-level guarantee of the package:
exact agreement between closed forms and defining-sum oracles, fan
combinatorics, piecewise-linearity certificates, Tate-quotient valuations,
torsion consistency, atlas counts, and CLI determinism.
"""

import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from drinfan import cli
from drinfan.atlas import (component_graph, slope_determinants,
                           slope_fan_is_interior_smooth, slope_fan_is_smooth,
                           symmetric_identity_holds)
from drinfan.cones import Cone, Fan
from drinfan.drinfeld import (class_point_of_steps, iterate_tate,
                              lattice_profile_of_steps,
                              predicted_torsion_valuations, torsion_valuations)
from drinfan.epsilon import (IDENTITIES, _stage_chain, delta, delta_oracle,
                             epsilon_hat, epsilon_hat1, epsilon_hat_oracle)
from drinfan.gf import Poly, gf
from drinfan.points import ClassPoint
from drinfan.xi import (_image_cone, cone_Cd, contains_class_point,
                        interior_samples, linearize_xi, pi_eval,
                        sigma_k_fan, sigma_kk_map, sigma_upper_fan, xi_eval,
                        xi_eval_coords)

F = Fraction

CLI = [sys.executable, "-m", "drinfan.cli"]


def _sorted_weights(rng, n, cap=64):
    vals = sorted(F(rng.randint(1, 4 * cap), rng.randint(1, 4))
                  for _ in range(n))
    return [min(v, F(cap)) for v in vals]


# 1. closed form == defining-sum oracle on a grid of >= 500 points, < 10 s

def test_01_closed_form_matches_oracle_grid():
    start = time.monotonic()
    rng = random.Random("acceptance-grid")
    points = 0
    for q in (2, 3):
        for r in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(28):
                    w = _sorted_weights(rng, n)
                    x = F(rng.randint(1, 256), rng.randint(1, 4))
                    x = min(x, F(64))
                    expected, got = IDENTITIES["closed-vs-oracle"](q, r, w, x)
                    assert expected == got
                    points += 1
    assert points >= 500
    assert time.monotonic() - start < 10.0


# 2. exact identities at 200 seeded points each, q = 2 and 3, zero failures

def _identity_points(q, seed, count, n_max=3):
    rng = random.Random(f"identities:{q}:{seed}")
    for _ in range(count):
        n = rng.randint(1, n_max)
        r = rng.randint(1, 2)
        w = _sorted_weights(rng, n, cap=16)
        x = F(rng.randint(1, 64), rng.randint(1, 4))
        yield q, r, w, x


def _identity_failures(q, table):
    """Failures at q of the identity suite, reading the laws the CLI also
    checks from ``table``."""
    failures = 0

    # scaling: hat(x) = q^{r+n} * hat(x / q^r) above the last weight
    for (qq, r, w, x) in _identity_points(q, 1, 200):
        x = x + w[-1]  # ensure x >= w[-1]
        expected, got = table["scaling"](qq, r, w, x / F(qq) ** r)
        failures += expected != got

    # composition: hat over n+m weights splits through the first m
    for (qq, r, w, x) in _identity_points(q, 2, 200, n_max=2):
        extra = _sorted_weights(random.Random(f"m:{qq}:{x}"), 1, cap=16)
        full = sorted(w + extra)
        m = 1
        t, tail = full[:m], full[m:]
        sp = [epsilon_hat(qq, r, t, s) for s in tail]
        lhs = epsilon_hat(qq, r, full, x)
        rhs = epsilon_hat(qq, r + m, sp, epsilon_hat(qq, r, t, x))
        failures += lhs != rhs

    # one-weight chain: hat == composition of one-weight maps at the
    # stage weights
    for (qq, r, w, x) in _identity_points(q, 3, 200):
        stages, _ = _stage_chain(qq, r, w)
        y = x
        for j, (u, v) in enumerate(stages):
            y = epsilon_hat1(qq, r + j, F(u, v), y)
        failures += y != epsilon_hat_oracle(qq, r, w, x)

    # delta split: first weight peels off with the remaining weights
    # pushed through its one-weight map
    for (qq, r, w, _) in _identity_points(q, 4, 200):
        if len(w) < 2:
            w = w + [w[-1] + 1]
        expected, got = table["delta-split"](qq, r, w, None)
        failures += expected != got

    # delta extension: adding a weight adds a scaled hat value
    for (qq, r, w, _) in _identity_points(q, 5, 200):
        extra = w[-1] + F(random.Random(f"e:{qq}:{w[-1]}").randint(0, 8))
        expected, got = table["delta-extend"](qq, r, w + [extra], None)
        failures += expected != got

    return failures


def test_02_identity_suite():
    for q in (2, 3):
        assert _identity_failures(q, IDENTITIES) == 0

        # cross-check delta against its independent oracle on a sample
        for (qq, r, w, _) in _identity_points(q, 6, 40):
            assert delta(qq, r, w) == delta_oracle(qq, r, w)


def test_02_identity_table_feeds_cli_and_suite(monkeypatch, capsys):
    # a wrong law in the one table fails both consumers, in its suite only
    law = IDENTITIES["scaling"]

    def wrong(q, r, w, x):  # q^{r+n-1} in place of q^{r+n}
        expected, got = law(q, r, w, x)
        return expected / q, got

    monkeypatch.setitem(IDENTITIES, "scaling", wrong)
    capsys.readouterr()
    assert cli.main(["verify", "identities", "--count", "3"]) == 1
    rows = [line.split("\t")
            for line in capsys.readouterr().out.splitlines()[1:-1]]
    assert {row[0] for row in rows if row[-1] == "FAIL"} == \
        {"scaling-q2", "scaling-q3"}
    for q in (2, 3):
        assert _identity_failures(q, IDENTITIES) > 0


# 3. the level-one image fan is the face fan of the chain cone, d = 2, 3, 4

def test_03_level_one_fan_is_face_fan():
    for d in (2, 3, 4):
        fan, _ = sigma_k_fan(2, d, 1)
        faces = Fan([cone_Cd(d)])
        assert {c.key() for c in fan} == {c.key() for c in faces}


# 4. d = 3: maximal-cone counts and the (1,2) transition pieces

def test_04_d3_fans_and_transition_pieces():
    for k in (1, 2, 3):
        assert len(sigma_upper_fan(2, 3, k).maximal_cones()) == k
    m = sigma_kk_map(2, 3, 1, 2)
    ray_sets = sorted(sorted(c.rays()) for c, _ in m.pieces)
    assert ray_sets == [[(0, 1), (1, 2)], [(1, 1), (1, 2)]]
    # the transition map transports level-1 images to level-2 images
    rng = random.Random("acceptance-transition")
    for sigma in sigma_upper_fan(2, 3, 2).maximal_cones():
        for s in interior_samples(sigma, rng, 5):
            a = xi_eval_coords(2, 1, s)
            b = xi_eval_coords(2, 2, s)
            assert tuple(m.eval(a)) == tuple(b)


# 5. d = 4 worked example: one value three ways, and one image cone

def test_05_worked_example_three_ways():
    expected = (F(1, 2), F(1), F(3))

    # way 1: the level-1 rescaling map directly
    assert xi_eval_coords(2, 1, [1, 2, 4]) == expected

    # way 2: recovered linear matrix on the containing piece, applied to
    # the flattened point
    sigma = Cone.from_ineqs([[1, 0, 0], [-2, 1, 0], [0, -1, 1], [0, 2, -1]],
                            n=3)
    flat = pi_eval(2, 2, sigma, ClassPoint.from_coords([1, 2, 4]))
    assert flat == (F(1), F(8, 3), F(32, 3))
    mat = linearize_xi(2, sigma, 2, 1, random.Random("acceptance-l1"))
    assert mat == ((F(1, 2), 0, 0),
                   (F(1, 3), F(1, 4), 0),
                   (F(1, 3), 0, F(1, 4)))
    applied = tuple(sum(row[j] * flat[j] for j in range(3)) for row in mat)
    assert applied == expected

    # way 3: per-coordinate counting-function formula
    from drinfan.xi import delta_tilde, pi_family_eval
    p = ClassPoint.from_coords([1, 2, 4])
    way3 = tuple(pi_family_eval(2, 1, i, i, p) + delta_tilde(2, p, i)
                 for i in (1, 2, 3))
    assert way3 == expected

    # image of the chain cone under the level-2 map
    img = _image_cone(2, 2, sigma)
    assert img == Cone.from_ineqs(
        [[1, 0, 0], [-2, 1, 0], [0, -1, 1], [-4, 4, -1]], n=3)


# 6. piecewise-linearity certificates for every source cone, d <= 4, k <= 2

def test_06_linearization_certificates():
    rng = random.Random("acceptance-certificates")
    for q in (2, 3):
        for d in (2, 3, 4):
            for k in (1, 2):
                for sigma in sigma_upper_fan(q, d, k).maximal_cones():
                    # raises LinearizationError if the recovered matrix
                    # fails at any ray or any of 5 interior points
                    linearize_xi(q, sigma, k, k, rng)


# 7. Tate lab valuations at precision 64, < 30 s

def test_07_tate_valuations():
    start = time.monotonic()
    for (q, m) in [(2, 1), (2, 2), (3, 1)]:
        module, steps = iterate_tate(q, 1, [m], 64)
        assert module.phi_T.z_degree() == q ** 2
        assert steps[0].top_valuation == (q ** 2 - 1) * delta(q, 1, [F(m)])
    # iterated two-step quotient: the same law at the accumulated profile,
    # whose second coordinate comes from the one-step counting function
    module, steps = iterate_tate(2, 1, [1, 3], 64)
    profile = lattice_profile_of_steps(2, 1, [1, 3])
    assert profile == (F(1), F(2))
    expected, got = IDENTITIES["delta-split"](2, 1, profile, None)
    assert expected == got
    assert steps[1].top_valuation == (2 ** 3 - 1) * delta(2, 1, profile) == 5
    assert time.monotonic() - start < 30.0


# 8. torsion consistency on >= 10 instances

TORSION_INSTANCES = [
    (2, 1, [1]), (2, 1, [2]), (2, 1, [3]), (2, 1, [1, 3]), (2, 1, [2, 4]),
    (3, 1, [1]), (3, 1, [2]), (2, 2, [1]), (2, 2, [2]), (2, 1, [1, 4]),
]


def test_08_torsion_consistency():
    assert len(TORSION_INSTANCES) >= 10
    for (q, r, ms) in TORSION_INSTANCES:
        K = gf(q)
        T = Poly.T(K)
        module, _ = iterate_tate(q, r, ms, 64)
        cp = class_point_of_steps(q, r, ms)
        for N, k in [(T, 1), (T * T, 2)]:
            # Newton-polygon torsion valuations match the counting-function
            # prediction as multisets
            actual = torsion_valuations(module, N)
            assert actual == predicted_torsion_valuations(q, r, ms, N)
            # the pole valuations are exactly the nonzero coordinates of
            # the rescaled class points at levels 1..k, negated
            poles = {v for v, _ in actual if v < 0}
            coords = {c for j in range(1, k + 1)
                      for c in xi_eval(q, j, cp).values if c != 0}
            assert poles == {-c for c in coords}
        _assert_membership_law(q, r, ms)


def _assert_membership_law(q, r, ms):
    """The class point lies in a cone of Sigma^(k) exactly when its image
    lies in the image cone, k = 1, 2.  An image cone need not be a cone of
    Sigma^(k), where contains_class_point is valid, so the rational image
    point is tested against the image cone's own inequalities."""
    cp = class_point_of_steps(q, r, ms)
    for k in (1, 2):
        img_pt = xi_eval(q, k, cp)
        for sigma in sigma_upper_fan(q, r + len(ms), k):
            assert contains_class_point(q, k, sigma, cp) == \
                _image_cone(q, k, sigma).contains(img_pt.values)


@pytest.mark.parametrize("q, r, ms", [(2, 2, [1, 3]), (2, 1, [1, 3, 6])])
def test_08_membership_law_at_d4(q, r, ms):
    # d = 4: contains_class_point on the image cone gave 4 wrong answers
    # for (2, 2, [1, 3]) at k = 2; only the class point is needed, so no
    # quotient is computed
    _assert_membership_law(q, r, ms)


def test_08_tate_fan_laws_feed_verify_tate(monkeypatch, capsys):
    # `verify tate` checks the laws above; a broken side fails its rows only
    def failing_suites():
        capsys.readouterr()
        assert cli.main(["verify", "tate"]) == 1
        rows = [line.split("\t")
                for line in capsys.readouterr().out.splitlines()[1:]]
        assert all(row[0].startswith("tate-") for row in rows[:4])
        return {row[0] + " " + row[1] for row in rows if row[-1] == "FAIL"}

    # xi at level k + 1 in place of level k: every pole row fails
    monkeypatch.setattr(cli, "xi_eval",
                        lambda q, k, point: xi_eval(q, k + 1, point))
    assert failing_suites() == {
        f"poles-{name} {case} k={k}" for k in (1, 2)
        for name, case in (("q2-r1", "1"), ("q2-r1", "2"), ("q3-r1", "1"),
                           ("q2-r1", "1,3"), ("q2-r2", "1"))}
    monkeypatch.undo()

    # image cones with their coordinates swapped: membership fails where a
    # point has two coordinates
    def swapped(q, k, sigma):
        image = _image_cone(q, k, sigma)
        return Cone.from_rays([g[::-1] for g in image.rays()], n=image.n)

    monkeypatch.setattr(cli, "_image_cone", swapped)
    assert failing_suites() == {f"membership-{name} k={k}" for k in (1, 2)
                                for name in ("q2-r1 1,3", "q2-r2 1")}


def test_08_membership_law_where_image_cones_are_not_comparison_cones():
    # at d = 4 some image cones have a facet with three or more terms, on
    # which contains_class_point is not valid; the image point is rational,
    # so its membership is decided by the image cone's own inequalities
    q, r, ms = 2, 2, [1, 3]
    module, _ = iterate_tate(q, r, ms, 48)
    cp = class_point_of_steps(q, r, ms)
    T = Poly.T(gf(q))
    N = T
    for k in (1, 2, 3):
        actual = torsion_valuations(module, N)
        assert actual == predicted_torsion_valuations(q, r, ms, N)
        coords = {c for j in range(1, k + 1)
                  for c in xi_eval(q, j, cp).values if c != 0}
        assert {v for v, _ in actual if v < 0} == {-c for c in coords}
        img_pt = xi_eval(q, k, cp)
        fan = sigma_upper_fan(q, r + len(ms), k)
        images = [_image_cone(q, k, sigma) for sigma in fan]
        assert [contains_class_point(q, k, sigma, cp) for sigma in fan] == \
            [image.contains(img_pt.values) for image in images]
        if k > 1:
            assert any(sum(map(bool, a)) > 2
                       for image in images for a in image.ineqs())
        N = N * T


# 9. atlas counts, edges, smoothness flags, symmetric identity

def test_09_atlas():
    comps, edges = component_graph(2, 0)
    points = [c for c in comps if c[0] == "point"]
    lines = [c for c in comps if c[0] == "line"]
    assert len(points) == 7 and len(lines) == 7
    assert len(edges) == 21

    comps1, edges1 = component_graph(2, 1)
    assert len([c for c in comps1 if c[0] == "flag"]) == 21
    assert all({a[0], b[0]} != {"point", "line"} for a, b in edges1)

    # the interior consecutive-slope determinant is 1 (3*1 - 1*2 = 1);
    # the final determinant against the vertical ray is 2, so the full
    # fan is not smooth while every interior pair is unimodular
    dets = slope_determinants([F(3, 2)])
    assert dets[0] == 3 * 1 - 1 * 2 == 1  # c2*d1 - c1*d2 for (1,1), (2,3)
    assert slope_fan_is_interior_smooth([F(3, 2)])
    assert dets == [1, 2]
    assert not slope_fan_is_smooth([F(3, 2)])

    assert symmetric_identity_holds(2)


# 10. CLI determinism: byte-identical artifacts across same-seed runs

def test_10_cli_determinism(tmp_path):
    def run(*args):
        return subprocess.run(CLI + list(args), capture_output=True,
                              text=True)

    commands = [
        ("eps", "delta", "--q", "2", "--r", "1", "--weights", "1,2"),
        ("xi", "linearize", "--q", "2", "--d", "4", "--k", "2",
         "--seed", "7"),
        ("fan", "sigma-k", "--q", "2", "--d", "3", "--k", "2"),
        ("hilbert", "--cone", "1,1;1,2"),
        ("bt", "cone", "--q", "2", "--sets", "0,0;0,1"),
        ("tate", "quotient", "--q", "2", "--r", "1", "--ms", "1,3",
         "--precision", "48"),
        ("atlas", "charts", "--alphas", "3/2"),
        ("satake-check",),
        ("verify", "identities", "--q", "2", "--seed", "9",
         "--count", "25"),
    ]
    for cmd in commands:
        a = run(*cmd)
        b = run(*cmd)
        assert a.returncode == 0, (cmd, a.stderr)
        assert a.stdout == b.stdout
        assert a.stdout  # never empty

    # file artifacts too: JSON and DOT
    for name in ("one", "two"):
        run("atlas", "graph", "--q", "2", "--m", "0",
            "--dot", str(tmp_path / f"{name}.dot"),
            "--out", str(tmp_path / f"{name}.json"))
    assert (tmp_path / "one.dot").read_bytes() == \
        (tmp_path / "two.dot").read_bytes()
    assert (tmp_path / "one.json").read_bytes() == \
        (tmp_path / "two.json").read_bytes()


# the walk-through script prints exactly what it printed when its output
# was first recorded

WORKED_EXAMPLE_SHA256 = \
    "ff290c4971bf81dd64f02411de5d877793a473601927192df3ab5e24fa121373"


def test_worked_example_script_output_pinned():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "worked_example.py")],
        capture_output=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == WORKED_EXAMPLE_SHA256
