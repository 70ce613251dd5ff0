"""drinfan benchmark: one seeded workload per run, every op's output checked.

    python3 perfbench/run.py --workload {tate,fans,cli-mix} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-test

Run from the repository root.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
README.md in this directory for the workloads and what each metric means.

The workload runs in a child interpreter, so that set-up time (fresh
interpreter to first timed op) and peak memory belong to it alone.  Set-up
is also timed in further fresh interpreters that stop at the first op; the
reported ``setup_s`` is the median of all of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_SAMPLES = 6        # set-up-only interpreters, plus the worker itself
CHILD_LIMIT_S = 170      # a child still running after this is killed
WINDOW_LIMIT_S = 150     # cap on --seconds, so a worker ends in time
SHOW_FAILURES = 5

# The host runs this worker at one of two speeds that differ by a factor of
# about 1.8 and switch every few seconds (other tenants of the machine), so
# raw times of the same batch spread by 15-25% from run to run.  Timings are
# therefore taken on a clock that runs at the reference speed: every
# PROBE_EVERY_S a fixed pure-Python loop (the probe) is timed, and the wall
# time since the previous probe is scaled by PROBE_REF_S / probe.
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.1

DEV_SEED, HELDOUT_SEED = 0, 1


def _fail(msg: str, code: int = 2) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# child: set up, then run the batch


def _import_workloads():
    sys.path.insert(0, SRC)
    import drinfan
    where = os.path.dirname(os.path.abspath(drinfan.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"drinfan imported from {where}, not from {SRC}")
    import workloads
    return workloads


def _probe() -> float:
    """Best of three timings of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 160):
            acc += Fraction(i, i + 3)
            table[i & 31] = table.get(i & 31, 0) + acc.denominator % 7
        best = min(best, time.perf_counter() - t0)
    return best


class _Clock:
    """Seconds at the reference speed, probed from a SIGALRM timer so that
    long ops are sampled too.  The probes' own time is left out."""

    def __init__(self):
        # (reference seconds so far, wall time of the last probe, its time),
        # replaced in one assignment so that now() never reads a torn state
        self.state = (0.0, time.perf_counter(), _probe())

    @property
    def probe(self) -> float:
        return self.state[2]

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        ref, last, old = self.state
        probe = _probe()
        ref += (t - last) * 2 * PROBE_REF_S / (old + probe)
        self.state = (ref, time.perf_counter(), probe)

    def now(self) -> float:
        ref, last, probe = self.state
        return ref + (time.perf_counter() - last) * PROBE_REF_S / probe

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run_pass(ops, times, clock, tracer=None, observe=None,
              deadline=None) -> list[str]:
    """Run the ops once, in order; return the failure messages.

    ``times[i]`` gets op i's time on the clock.  With a (wall) deadline,
    stop before the first op that would not end by it (later ops may need
    its output, so none is skipped).
    """
    failures = []
    for i, op in enumerate(ops):
        if deadline is not None and time.perf_counter() + statistics.median(
                times[i]) * clock.probe / PROBE_REF_S > deadline:
            break
        t0 = clock.now()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        else:
            err = None
        times[i].append(clock.now() - t0)
        if tracer is not None:
            tracer.paused = True   # checks are not part of the workload
        try:
            if err is None:
                err = op.check(out)
            if observe is not None and err is None:
                observe(op, out)
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
        if err is not None:
            failures.append(f"{op.label}: {err}")
    return failures


def _report_failures(failures) -> None:
    for msg in failures[:SHOW_FAILURES]:
        print(f"perfbench: FAILED {msg}", file=sys.stderr)
    if len(failures) > SHOW_FAILURES:
        print(f"perfbench: ... and {len(failures) - SHOW_FAILURES} more",
              file=sys.stderr)


def _hd_quantile(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics with Beta(p(n+1), (1-p)(n+1)) weights.  Unlike the
    single middle value it does not jump when two ops of different cost
    swap ranks, which matters for a batch of 11 or 45 unlike ops."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1) - 1, (1 - p) * (n + 1) - 1

    def log_density(t):
        if t <= 0.0 or t >= 1.0:
            return -math.inf
        return a * math.log(t) + b * math.log1p(-t)

    # Simpson's rule on each 1/n slice; weights are normalized afterwards
    grid = [log_density(k / (n * steps)) for k in range(n * steps + 1)]
    top = max(grid)
    dens = [math.exp(g - top) for g in grid]
    weights = []
    for i in range(n):
        seg = dens[i * steps:(i + 1) * steps + 1]
        weights.append(seg[0] + seg[-1] + sum(
            (4 if k % 2 else 2) * seg[k] for k in range(1, steps)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _timed(ops, seconds, clock) -> dict:
    """One full pass, then more passes until the window ends; a pass stops
    at the first op that would not end in the window."""
    times = [[] for _ in ops]
    deadline = time.perf_counter() + min(seconds, WINDOW_LIMIT_S)
    failures = _run_pass(ops, times, clock)
    passes = 1
    while True:
        before = len(times[0])
        failures += _run_pass(ops, times, clock, deadline=deadline)
        if len(times[0]) == before:
            break
        passes += 1
    _report_failures(failures)
    # each op's latency is its median over the passes that reached it
    latency = [statistics.median(ts) for ts in times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "attempted": sum(len(ts) for ts in times), "failed": len(failures),
        "passes": passes,
        "metrics": {
            "wall_s": (sum(latency), "s"),
            "op_p50_s": (_hd_quantile(latency, 0.5), "s"),
            "op_p90_s": (_hd_quantile(latency, 0.9), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        },
    }


def _traced(workloads, tracer_mod, name, ops, clock) -> dict:
    """One untraced pass, one traced pass, then the per-layer metrics."""
    untraced = [[] for _ in ops]
    failures = _run_pass(ops, untraced, clock)
    tracer = tracer_mod.Tracer()
    traced = [[] for _ in ops]
    stdout_bytes = 0

    def observe(op, out):
        nonlocal stdout_bytes
        if op.argv is not None:
            stdout_bytes += len(out[1].encode())

    with tracer:
        failures += _run_pass(ops, traced, clock, tracer, observe)
    _report_failures(failures)
    idle = [k for k in workloads.REQUIRED_CALLS[name] if not tracer.calls(k)]
    if idle:
        raise tracer_mod.TraceError(
            f"no calls recorded for {idle}, which the {name} ops need")
    metrics = tracer.metrics()
    metrics["drinfeld.gap_precisions"] = (workloads.gap_precisions(), "count")
    argvs = [op.argv for op in ops if op.argv is not None]
    repeats = len(argvs) - len(set(argvs))
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["cli.repeat_share"] = (repeats / len(argvs) if argvs else 0.0,
                                   "ratio")
    wall_u = sum(t for ts in untraced for t in ts)
    wall_t = sum(t for ts in traced for t in ts)
    metrics["trace.overhead_ratio"] = (wall_t / wall_u, "ratio")
    return {"attempted": 2 * len(ops), "failed": len(failures), "passes": 2,
            "metrics": metrics}


def child(args) -> int:
    try:
        workloads = _import_workloads()
    except ImportError as exc:
        return _fail(f"cannot import drinfan from {SRC}: {exc}")
    workloads.setup(args.workload)
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    ops = workloads.build(args.workload, args.seed, expected)
    want = expected["batches"][args.workload].get(str(args.seed))
    if want is not None and want != workloads.batch_fingerprint(ops):
        return _fail(f"the {args.workload} batch for seed {args.seed} is not "
                     "the one recorded; re-run perfbench/record.py", 4)
    print("ready", flush=True)
    clock = _Clock()   # after "ready": probing is not part of set-up
    print(f"probe {clock.probe!r}", flush=True)
    if args.setup_only:
        return 0
    with clock:
        if args.trace:
            import tracer
            try:
                result = _traced(workloads, tracer, args.workload, ops,
                                 clock)
            except tracer.TraceError as exc:
                return _fail(f"traced run stopped: {exc}", 3)
        else:
            result = _timed(ops, args.seconds, clock)
    result["ops_per_pass"] = len(ops)
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# parent: time set-up in fresh interpreters, run the worker, report


def _spawn(args, setup_only: bool) -> tuple[float, str]:
    """Start a child; return (seconds to its first op at the reference
    speed, its later stdout)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        probe = proc.stdout.readline()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.kill()   # no-op once it has exited
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise ChildProcessError(
            f"worker exited with code {proc.returncode}")
    return ready * PROBE_REF_S / float(probe.split()[1]), rest


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "drinfan", "__init__.py")):
        return _fail(f"no drinfan sources under {SRC}")
    try:
        setup = [] if args.trace else \
            [_spawn(args, True)[0] for _ in range(SETUP_SAMPLES)]
        ready, out = _spawn(args, False)
    except ChildProcessError as exc:
        return _fail(str(exc), 1)
    result = json.loads(out.strip().splitlines()[-1])
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup + [ready]), "s")
    attempted, failed = result["attempted"], result["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['passes']} passes over {result['ops_per_pass']} ops, "
          f"{failed} failed (fail_ratio {failed / attempted:g})")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


# ---------------------------------------------------------------------------
# self-test: a changed expected value must count as a failed op


def self_test() -> int:
    workloads = _import_workloads()
    import tracer
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    ops = workloads.build("cli-mix", DEV_SEED, expected)
    target = next(op for op in ops if op.record is not None)
    sample = [target] + [op for op in ops if op.record is None][:5]
    times = [[] for _ in sample]
    clock = _Clock()
    if _run_pass(sample, times, clock):
        return _fail("self-test: the unchanged expectations fail", 1)
    expected["cli"][target.label] = "0:" + "0" * 20
    changed = workloads.build("cli-mix", DEV_SEED, expected)
    sample = [op for op in changed if op.label == target.label][:1]
    failures = _run_pass(sample, [[]], clock)
    if len(failures) != 1:
        return _fail("self-test: a changed expected value was not counted "
                     "as a failed op", 1)
    # a hooked name that disappears must stop the traced run
    import drinfan.cones as cones
    saved = cones._dd_convert
    del cones._dd_convert
    try:
        tracer.Tracer().install()
    except tracer.TraceError:
        pass
    else:
        return _fail("self-test: a missing hooked name went unnoticed", 1)
    finally:
        cones._dd_convert = saved
    print(f"self-test passed: {target.label!r} with a changed digest "
          "counted as failed; a missing hook stops the traced run")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("tate", "fans", "cli-mix"))
    p.add_argument("--seed", type=int, default=DEV_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
