"""The three seeded workloads and the check on every operation's output.

An op is one timed call.  ``build(workload, seed, expected)`` returns the
workload's fixed batch of ops; the same seed always gives the same batch.
Each op carries a check that runs after the op, outside its timing.  A
check uses an independent oracle where one exists; otherwise it compares
the op's exit code and stdout digest with the value recorded at the commit
that defined the benchmark (``expected.json``, written by ``record.py``).

Library functions are always looked up through their module at call time
(``drinfeld.iterate_tate``, ``cli.main``), so the tracer's rebinding applies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import drinfan.cli as cli
import drinfan.drinfeld as drinfeld
import drinfan.epsilon as eps
import drinfan.norms as norms
import drinfan.xi as xi
from drinfan.cones import Cone, Fan
from drinfan.gf import Poly, gf

WORKLOADS = ("tate", "fans", "cli-mix")


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None when the output is right
    argv: tuple[str, ...] | None = None      # CLI ops only
    # the value recorded in expected.json, for ops checked by digest
    record: Callable[[object], str] | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def batch_fingerprint(ops: list[Op]) -> str:
    return digest("\n".join(op.label for op in ops))


# ---------------------------------------------------------------------------
# tate: Tate quotients at working precision (series products dominate)

# the ten instances of tests/test_acceptance.py, at precision 64
TORSION_INSTANCES = [
    (2, 1, (1,)), (2, 1, (2,)), (2, 1, (3,)), (2, 1, (1, 3)), (2, 1, (2, 4)),
    (3, 1, (1,)), (3, 1, (2,)), (2, 2, (1,)), (2, 2, (2,)), (2, 1, (1, 4)),
]
TATE_PAIRS = [(inst, 64) for inst in TORSION_INSTANCES] + [
    ((2, 1, (1, 3)), 96), ((2, 1, (2, 4)), 96),   # precision growth
    ((2, 1, (2,)), 128),                          # the steep end of the curve
    ((4, 1, (1,)), 48),                           # extension field
    ((5, 1, (1,)), 64),
]
# Pairs left out because they raise PrecisionError at this commit (success is
# not monotone in precision; ROADMAP item 3): (2,1,[1,3]) at 4-10 and 25-42,
# (2,1,[2,4]) at 4-13 and 32-53, (2,1,[1,4]) at 4-14 and 34-58.  The traced
# run reports the first as drinfeld.gap_precisions.
GAP_SCAN = ((2, 1, [1, 3]), range(4, 65))


def _tate_ops(rng: random.Random) -> list[Op]:
    ops = []
    for (q, r, ms), prec in TATE_PAIRS:
        state: dict = {}

        def quotient(q=q, r=r, ms=ms, prec=prec, state=state):
            state.clear()
            module, steps = drinfeld.iterate_tate(q, r, list(ms), prec)
            state["module"] = module
            return module, steps

        def check_quotient(out, q=q, r=r, ms=ms):
            module, steps = out
            if module.rank != r + len(ms):
                return f"rank {module.rank} != {r + len(ms)}"
            # top valuation law: v_j = (q^(r+j) - 1) * delta(profile[:j])
            prof = drinfeld.lattice_profile_of_steps(q, r, list(ms))
            want = [(q ** (r + j) - 1) * eps.delta(q, r, prof[:j])
                    for j in range(1, len(ms) + 1)]
            got = [s.top_valuation for s in steps]
            return None if got == want else f"top valuations {got} != {want}"

        ops.append(Op(f"iterate_tate({q},{r},{list(ms)},{prec})", quotient,
                      check_quotient))
        field = gf(q)
        for deg in (1, 2):
            # nonzero lower coefficients: every N of a degree costs the same
            N = Poly.make(field, [rng.randrange(1, q) for _ in range(deg)]
                          + [1])

            def torsion(q=q, r=r, ms=ms, N=N, state=state):
                if "module" not in state:
                    raise RuntimeError("its quotient op failed")
                actual = drinfeld.torsion_valuations(state["module"], N)
                predicted = drinfeld.predicted_torsion_valuations(
                    q, r, list(ms), N)
                return actual, predicted

            def check_torsion(out):
                actual, predicted = out
                return None if actual == predicted else \
                    f"torsion {actual} != predicted {predicted}"

            ops.append(Op(f"torsion({q},{r},{list(ms)},{prec},N={N.coeffs})",
                          torsion, check_torsion))
    return ops


def gap_precisions() -> int:
    """Precisions p where the gap-scan instance raises PrecisionError."""
    from drinfan.series import PrecisionError
    (q, r, ms), precs = GAP_SCAN
    gaps = 0
    for p in precs:
        try:
            drinfeld.iterate_tate(q, r, ms, p)
        except PrecisionError:
            gaps += 1
    return gaps


# ---------------------------------------------------------------------------
# fans: comparison fans and their validation (double description dominates)

FAN_BUILDS = [(2, 4, 1), (2, 4, 2), (2, 4, 3), (3, 4, 2), (2, 5, 1)]


def _fan_canon(fan: Fan) -> dict:
    def cone(c):
        return [sorted(list(r) for r in c.rays()),
                sorted(list(r) for r in c.lines())]
    return {"size": len(fan),
            "maximal": sorted(cone(c) for c in fan.maximal_cones())}


def _matrix_canon(mat) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in mat]


def _by_record(label, canon, recorded):
    def check(out):
        want = recorded.get(label)
        if want is None:
            return "no recorded digest"
        got = canon(out)
        return None if got == want else f"digest {got} != {want}"
    return check


def _upper_canon(fan):
    return digest(json.dumps(_fan_canon(fan), sort_keys=True))


def _sigk_canon(out):
    fan, pieces = out
    obj = _fan_canon(fan)
    obj["pieces"] = sorted(
        [sorted(list(r) for r in p["source"].rays()),
         sorted(list(r) for r in p["image"].rays()),
         _matrix_canon(p["matrix"])] for p in pieces)
    return digest(json.dumps(obj, sort_keys=True))


def _kk_canon(m):
    return digest(json.dumps(sorted(
        [sorted(list(r) for r in c.rays()), _matrix_canon(mat)]
        for c, mat in m.pieces)))


def _fans_ops(seed: int, recorded: dict) -> list[Op]:
    ops = []
    for q, d, k in FAN_BUILDS:
        state: dict = {}

        def build(q=q, d=d, k=k, state=state):
            state.clear()
            state["fan"] = xi.sigma_upper_fan(q, d, k)
            return state["fan"]

        label = f"sigma_upper_fan({q},{d},{k})"
        ops.append(Op(label, build, _by_record(label, _upper_canon, recorded),
                      record=_upper_canon))
        if d == 4:
            def validate(state=state):
                if "fan" not in state:
                    raise RuntimeError("its build op failed")
                return state["fan"].validate(xi.cone_Cd(4))

            ops.append(Op(f"validate({q},{d},{k})", validate,
                          lambda out: None if out == [] else f"{out[:2]}"))
    # the rng inside these two is seeded from the workload seed; the
    # certified matrices, and so the digests, do not depend on it
    for label, run, canon in (
            ("sigma_k_fan(2,4,2)",
             lambda: xi.sigma_k_fan(2, 4, 2, seed=seed), _sigk_canon),
            ("sigma_kk_map(2,4,1,2)",
             lambda: xi.sigma_kk_map(2, 4, 1, 2, seed=seed), _kk_canon)):
        ops.append(Op(label, run, _by_record(label, canon, recorded),
                      record=canon))
    return ops


# ---------------------------------------------------------------------------
# cli-mix: a few hundred in-process CLI calls plus small norm computations


def _fs(x) -> str:
    f = Fraction(x)
    return str(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _frac(rng, hi, den) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, den))


def _weights(rng, n):
    return sorted(_frac(rng, 24, 4) for _ in range(n))


def _eps_args(rng):
    q, r = rng.choice((2, 3)), rng.randint(1, 3)
    w = _weights(rng, rng.randint(1, 3))
    return q, r, w, _frac(rng, 64, 8) * max(w)


def _eps_argv(action, q, r, w, x, *extra):
    return ["eps", action, "--q", str(q), "--r", str(r),
            "--weights", ",".join(_fs(v) for v in w), "--x", _fs(x), *extra]


def _value_check(want):
    def check(text):
        got, wanted = Fraction(text.strip()), want()
        return None if got == wanted else f"{_fs(got)} != {_fs(wanted)}"
    return check


def _gen_eps_closed(rng):
    q, r, w, x = _eps_args(rng)
    return (_eps_argv("eval", q, r, w, x, "--method", "closed"),
            _value_check(lambda: eps.epsilon_oracle(q, r, w, x)))


def _gen_eps_oracle(rng):
    q, r, w, x = _eps_args(rng)
    return (_eps_argv("eval", q, r, w, x, "--method", "oracle"),
            _value_check(lambda: eps.epsilon_closed(q, r, w, x)))


def _gen_eps_delta(rng):
    q, r, w, _ = _eps_args(rng)
    return (_eps_argv("delta", q, r, w, 0),
            _value_check(lambda: eps.delta_oracle(q, r, w)))


def _gen_eps_inv(rng):
    q, r, w, y = _eps_args(rng)

    def check(text):
        back = eps.epsilon_oracle(q, r, w, Fraction(text.strip()))
        return None if back == y else \
            f"epsilon(inverse) {_fs(back)} != {_fs(y)}"
    return _eps_argv("inv", q, r, w, y), check


def _xi_oracle(q, k, x):
    """xi_k at a point with positive first coordinate, by the defining sum."""
    return [eps.epsilon_oracle(q, 1, x, Fraction(v, q ** k)) for v in x]


def _gen_xi_eval(rng):
    q, k = rng.choice((2, 3)), rng.randint(1, 3)
    x = sorted(_frac(rng, 12, 2) for _ in range(rng.choice((2, 3))))

    def check(text):
        got = [Fraction(v) for v in json.loads(text)["image"]]
        want = _xi_oracle(q, k, x)
        return None if got == want else f"image {got} != {want}"
    return (["xi", "eval", "--q", str(q), "--k", str(k),
             "--coords", ",".join(_fs(v) for v in x)], check)


def _gen_xi_linearize(rng):
    q, k = rng.choice((2, 3)), rng.randint(1, 3)
    kp = rng.choice([v for v in (1, 2, 3) if v != k])
    seed = rng.randrange(1000)
    # fresh certificate points, drawn now so the check is deterministic
    pts = [sorted(rng.sample(range(1, 60), 2)) for _ in range(4)]

    def check(text):
        pieces = [(Cone.from_rays(p["cone"]["rays"], n=2,
                                  lines=p["cone"]["lines"]),
                   [[Fraction(v) for v in row] for row in p["matrix"]])
                  for p in json.loads(text)["pieces"]]
        for x in pts:
            y, z = _xi_oracle(q, k, x), _xi_oracle(q, kp, x)
            hits = [m for c, m in pieces if c.contains(y)]
            if not hits:
                return f"xi_{k}({x}) lies in no piece"
            for m in hits:
                if [sum(a * b for a, b in zip(row, y)) for row in m] != z:
                    return f"piece matrix fails at {x}"
        return None
    return (["xi", "linearize", "--q", str(q), "--d", "3", "--k", str(k),
             "--kprime", str(kp), "--seed", str(seed)], check)


def _rays_of(spec: str):
    return [[int(v) for v in part.split(",")] for part in spec.split(";")]


def _det2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _cones_2d(hi, dets):
    out = []
    for a, b, c, d in itertools.product(range(hi + 1), repeat=4):
        if math.gcd(a, b) == 1 and math.gcd(c, d) == 1 \
                and a * d - b * c in dets:
            out.append(f"{a},{b};{c},{d}")
    return out


def _gen_refine(rng):
    spec = rng.choice(_REFINE_CONES)
    rays = _rays_of(spec)

    def check(text):
        maximal = json.loads(text)["maximal"]
        if any(abs(_det2(*c["rays"])) != 1 for c in maximal):
            return "a maximal cone is not regular"
        fan = Fan(Cone.from_rays(c["rays"], n=2) for c in maximal)
        problems = fan.validate(Cone.from_rays(rays, n=2))
        return None if problems == [] else \
            f"not a subdivision: {problems[:1]}"
    return ["fan", "refine", "--cone", spec], check


_REFINE_CONES = _cones_2d(4, range(2, 8))


def _fan_valid(support=None):
    def extra(argv, text):
        maximal = json.loads(text)["maximal"]
        if not maximal:
            return "empty fan"
        n = len((maximal[0]["rays"] + maximal[0]["lines"])[0])
        fan = Fan(Cone.from_rays(c["rays"], n=n, lines=c["lines"])
                  for c in maximal)
        problems = fan.validate(support(n + 1) if support else None)
        return None if problems == [] else f"invalid fan: {problems[:1]}"
    return extra


def _in_dual_cone(argv, text):
    rays = _rays_of(argv[-1])
    for g in json.loads(text)["generators"]:
        if any(sum(a * b for a, b in zip(g, r)) < 0 for r in rays):
            return f"generator {g} outside the dual cone"
    return None


def _no_fail(argv, text):
    return "the suite reports a failure" if "\tFAIL" in text else None


def _no_failures(argv, text):
    return _no_fail(argv, text) or (None if "# failures: 0" in text
                                    else "the failure count is not 0")


# pools of the digest-checked commands: every argv any seed can draw
_TATE48 = [(2, 1, "1"), (2, 1, "2"), (2, 1, "3"), (2, 1, "1,3"), (3, 1, "1"),
           (3, 1, "2"), (2, 2, "1"), (2, 2, "2"), (2, 1, "4"), (3, 1, "3"),
           (4, 1, "1")]
_BT_SETS = ["0,0", "0,1", "0,0;0,1", "0,0,0", "0,0,1;0,1,1",
            "0,0,0;0,0,1;0,1,1", "0,0,0,0;0,0,0,1;0,0,1,1;0,1,1,1"]
_HILBERT_3D = ["1,0,0;0,1,0;1,1,2", "1,0,0;0,1,0;1,1,3", "1,0,0;0,1,0;1,2,3",
               "1,0,0;1,1,0;1,1,2", "1,0,0;0,1,0;0,1,1;1,0,1",
               "1,0,0;0,1,0;0,0,1"]
_ALPHAS = ["2", "3/2", "3/2,2", "3/2,5/2,4", "4/3,2,3", "5/4,3/2", "2,3,5",
           "3/2,3", "5/3,7/3"]

POOLS: dict[str, list[list[str]]] = {
    "fan-upper": [["fan", "sigma-upper", "--q", str(q), "--d", str(d),
                   "--k", str(k)]
                  for q in (2, 3) for d in (2, 3) for k in (1, 2, 3)],
    "fan-sigk": [["fan", "sigma-k", "--q", str(q), "--d", str(d),
                  "--k", str(k), "--seed", str(s)]
                 for q in (2, 3) for d in (2, 3) for k in (1, 2, 3)
                 for s in (0, 1, 2)],
    "fan-join": [["fan", "join", "--q", str(q), "--d", "3", "--k", str(k),
                  "--kprime", str(kp), "--seed", str(s)]
                 for q in (2, 3) for k, kp in ((1, 2), (1, 3), (2, 3))
                 for s in (0, 1, 2)],
    "hilbert": [["hilbert", "--cone", c]
                for c in _cones_2d(3, range(1, 7)) + _HILBERT_3D],
    # q = 3 is left out: simplex_cone raises AssertionError for some faces
    # of the standard simplex there (e.g. --sets 0,1), an open defect
    "bt-cone": [["bt", "cone", "--q", "2", "--r", str(r), "--sets", s]
                for r in (1, 2) for s in _BT_SETS],
    "atlas-graph": [["atlas", "graph", "--q", str(q), "--m", str(m)]
                    for q in (2, 3, 4, 5) for m in (0, 1, 2)],
    "atlas-charts": [["atlas", "charts", "--alphas", a] for a in _ALPHAS],
    "satake": [["satake-check"]],
    "verify-ids": [["verify", "identities", "--q", str(q), "--seed", str(s),
                    "--count", str(c)]
                   for q in (2, 3) for s in range(5) for c in (3, 5)],
    # the p48 instances that certify; (2,1,[2,4]) and (2,1,[1,4]) do not
    "tate-quotient": [["tate", "quotient", "--q", str(q), "--r", str(r),
                       "--ms", ms, "--precision", "48"]
                      for q, r, ms in _TATE48],
}
# checks made on top of the recorded digest
_POOL_EXTRA = {
    "fan-upper": _fan_valid(xi.cone_Cd),
    "fan-sigk": _fan_valid(),
    "fan-join": _fan_valid(),
    "hilbert": _in_dual_cone,
    "verify-ids": _no_failures,
    "satake": _no_fail,
}


def _torsion_ops(rng, recorded, count):
    """Torsion commands at precision 48, each certifying instance dealt
    once per round, at a monic N of degree 1 or 2 drawn from the seed."""
    ops = []
    for q, r, ms in _deal(rng, _TATE48, count):
        N = [rng.randrange(q) for _ in range(rng.randint(1, 2))] + [1]
        msl = [int(v) for v in ms.split(",")]

        def check(text, q=q, r=r, msl=msl, N=N):
            got = json.loads(text)
            predicted = drinfeld.predicted_torsion_valuations(
                q, r, msl, Poly.make(gf(q), N))
            want = [[_fs(v), m] for v, m in predicted]
            return None if got["torsion_actual"] == want else \
                f"torsion {got['torsion_actual']} != predicted {want}"
        argv = ["tate", "torsion", "--q", str(q), "--r", str(r), "--ms", ms,
                "--N", ",".join(map(str, N)), "--precision", "48"]
        ops.append(_oracle_op(argv, check))
    return ops


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def cli_key(argv) -> str:
    return " ".join(argv)


def cli_record(out) -> str:
    rc, text = out
    return f"{rc}:{digest(text)}"


def _cli_op(argv, check, record=None) -> Op:
    argv = tuple(argv)
    return Op(cli_key(argv), lambda: run_cli(argv), check, argv, record)


def _deal(rng, pool, count):
    """``count`` entries of ``pool`` dealt in shuffled rounds: a batch holds
    each entry about count / len(pool) times whatever the seed, so seeds
    reorder the commands more than they change the batch's cost."""
    out: list = []
    while len(out) < count:
        out += rng.sample(pool, len(pool))
    return out[:count]


def _pool_ops(family):
    extra = _POOL_EXTRA.get(family)

    def make(argv, recorded):
        def check(out):
            want = recorded.get(cli_key(argv))
            if want is None:
                return "no recorded digest"
            got = cli_record(out)
            if got != want:
                return f"exit code and stdout digest {got} != {want}"
            return extra(argv, out[1]) if extra else None
        return _cli_op(argv, check, cli_record)

    return lambda rng, recorded, count: [
        make(argv, recorded) for argv in _deal(rng, POOLS[family], count)]


def _oracle_op(argv, check_text) -> Op:
    def check(out):
        rc, text = out
        return check_text(text) if rc == 0 else f"exit code {rc}"
    return _cli_op(argv, check)


def _oracle_ops(make):
    """CLI ops from ``make(rng) -> (argv, check of its stdout)``."""
    return lambda rng, recorded, count: [
        _oracle_op(*make(rng)) for _ in range(count)]


def _norm_op(rng) -> Op:
    q = rng.choice((2, 3))
    field = gf(q)
    one, zero, T = Poly.one(field), Poly.zero(field), Poly.T(field)
    a = rng.choice([zero, one, T, T + one] if q == 2
                   else [zero, one, Poly.constant(field, 2), T])
    # weights within a factor 3 of each other keep the exhaustive search
    # small; a ratio of 12 takes seconds and tens of MB
    w = (Fraction(rng.randint(2, 6), 2), Fraction(rng.randint(2, 6), 2))
    # (e1, a e1 + e2) spans the identity lattice: the profile is sorted(w)
    gens = [(one, zero), (a, one)]

    def run():
        return norms.successive_minima(norms.WeightedNorm(field, w), gens)

    def check(out):
        basis, values = out
        return None if values == sorted(w) and len(basis) == 2 else \
            f"profile {values} != {sorted(w)}"
    return Op(f"successive_minima(q={q}, a={a.coeffs}, w={w})", run, check)


# family -> (ops per batch, maker of that many ops).  The counts put the
# median op among the few-millisecond commands and the p90 op among the
# 30-100 ms ones
FAMILIES = {
    "eps-closed": (40, _oracle_ops(_gen_eps_closed)),
    "eps-oracle": (40, _oracle_ops(_gen_eps_oracle)),
    "eps-delta": (20, _oracle_ops(_gen_eps_delta)),
    "eps-inv": (20, _oracle_ops(_gen_eps_inv)),
    "xi-eval": (30, _oracle_ops(_gen_xi_eval)),
    "xi-linearize": (10, _oracle_ops(_gen_xi_linearize)),
    "fan-upper": (15, _pool_ops("fan-upper")),
    "fan-sigk": (10, _pool_ops("fan-sigk")),
    "fan-join": (5, _pool_ops("fan-join")),
    "fan-refine": (10, _oracle_ops(_gen_refine)),
    "hilbert": (20, _pool_ops("hilbert")),
    "bt-cone": (15, _pool_ops("bt-cone")),
    "atlas-graph": (8, _pool_ops("atlas-graph")),
    "atlas-charts": (8, _pool_ops("atlas-charts")),
    "satake": (4, _pool_ops("satake")),
    "verify-ids": (8, _pool_ops("verify-ids")),
    "tate-quotient": (11, _pool_ops("tate-quotient")),
    "tate-torsion": (11, _torsion_ops),
    "norms": (15, lambda rng, recorded, count: [
        _norm_op(rng) for _ in range(count)]),
}


def _cli_mix_ops(rng: random.Random, recorded: dict) -> list[Op]:
    ops = [op for count, make in FAMILIES.values()
           for op in make(rng, recorded, count)]
    # interleave the families, as a user session would
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def setup(workload: str) -> None:
    """Build the fields and the parser the workload uses (set-up cost)."""
    for q in (2, 3, 4, 5):
        gf(q)
    if workload == "cli-mix":
        cli.build_parser()


def build(workload: str, seed: int, expected: dict | None = None) -> list[Op]:
    """The workload's batch; ``expected`` holds the recorded digests."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    expected = expected or {}
    if workload == "tate":
        return _tate_ops(rng)
    if workload == "fans":
        return _fans_ops(seed, expected.get("fans", {}))
    if workload == "cli-mix":
        return _cli_mix_ops(rng, expected.get("cli", {}))
    raise ValueError(f"unknown workload {workload!r}")


# layer entry points each workload's op list needs; the traced run stops
# if one records no call
REQUIRED_CALLS = {
    "tate": ("series.LaurentSeries.__mul__", "series.LaurentSeries.inverse",
             "series.AdditiveSeries.compose", "series.AdditiveSeries.apply",
             "series.AdditiveSeries.newton_points", "drinfeld.iterate_tate",
             "drinfeld.tate_step", "epsilon.epsilon"),
    "fans": ("xi.sigma_upper_fan", "cones._dd_convert", "cones.Fan.validate",
             "xi.linearize_xi", "linalg.rref", "linalg.solve",
             "epsilon.epsilon_closed"),
    "cli-mix": ("cli.main", "epsilon.epsilon_closed", "epsilon.epsilon_oracle",
                "xi.linearize_xi", "xi.sigma_upper_fan", "cones._dd_convert",
                "cones.dual_monoid_hilbert_basis",
                "cones.Fan.regular_refinement", "linalg.rref",
                "norms.successive_minima", "bruhat_tits.simplex_cone",
                "atlas.component_graph", "drinfeld.iterate_tate",
                "series.LaurentSeries.__mul__", "gf.Poly.__mul__"),
}
