"""Command-line interface.

Subcommands, one path each: eps eval|delta|inv (the scalar kernel), xi
eval|linearize (the rescaling maps and the transition maps xi_{k,k'}), fan
sigma-upper|sigma-k|join|refine, hilbert, bt simplex|cone, tate
quotient|torsion, atlas graph|charts, satake-check, and the TSV suites
verify identities|tate|sigk3.  `verify identities` covers q = 2 and 3 and
evaluates every law through the table epsilon.IDENTITIES; `verify tate`
checks the torsion of Tate quotients against the comparison fans.

All output is deterministic: JSON is emitted with sorted keys, rays and
cones in canonical sorted order, and rationals as "a/b" strings.  Random
sampling is driven by a seed that is split per suite via
random.Random(f"{seed}:{suite}").

Exit codes: 0 success, 1 a verification or certificate failed, 2 bad
input or an output file that cannot be written, 3 the working precision
was too low (retry at another --precision), 141 (128 + SIGPIPE) stdout
was closed before the output was written (say, piped into head).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import epsilon as eps_mod
from .atlas import (chart_monomials, component_graph, division_polynomial_exponents,
                    division_polynomial_is_symmetric, slope_determinants,
                    slope_fan, slope_fan_is_interior_smooth,
                    slope_fan_is_smooth, symmetric_identity_holds)
from .bruhat_tits import simplex_cone, standard_simplex_cone
from .cones import Cone, Fan, dual_monoid_hilbert_basis
from .drinfeld import (class_point_of_steps, iterate_tate,
                       predicted_torsion_valuations, torsion_valuations)
from .gf import Poly, gf
from .series import PrecisionError
from .xi import (LinearizationError, _image_cone, contains_class_point,
                 sigma_k_fan, sigma_kk_map, sigma_upper_fan, xi_eval,
                 xi_eval_coords)

CHECK_FAILED = 1
USAGE_ERROR = 2
PRECISION_TOO_LOW = 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process SIGPIPE ended


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def _number(option: str, token: str, kind=Fraction):
    """One number of an option's value, as kind (Fraction or int); a bad
    token is a ValueError naming the option and the token."""
    try:
        return kind(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option}: bad number {token!r}") from None


def _parse_vec(option: str, s: str) -> list[Fraction]:
    """Rationals written 'a,b/c,...'; empty entries are skipped."""
    return [_number(option, p) for p in s.split(",") if p != ""]


def _parse_ints(option: str, s: str) -> list[int]:
    """Integers written 'a,b,...'; every entry must be one."""
    return [_number(option, x, int) for x in s.split(",")]


def _parse_rows(option: str, s: str) -> list[list[int]]:
    """Integer rows written 'a,b;c,d;...': cone rays or exponent vectors."""
    return [_parse_ints(option, part) for part in s.split(";") if part]


def _parse_cone(s: str) -> Cone:
    rays = _parse_rows("--cone", s)
    if not rays:
        raise ValueError("--cone needs at least one ray 'a,b;c,d;...'")
    return Cone.from_rays(rays, n=len(rays[0]))


def _cone_json(c: Cone) -> dict:
    return {"rays": sorted(list(r) for r in c.rays()),
            "lines": sorted(list(r) for r in c.lines()),
            "dim": c.dim()}


def _fan_json(fan) -> dict:
    cones = sorted((_cone_json(c) for c in fan),
                   key=lambda d: (d["dim"], d["rays"]))
    maximal = sorted((_cone_json(c) for c in fan.maximal_cones()),
                     key=lambda d: (d["dim"], d["rays"]))
    return {"cones": cones, "maximal": maximal, "size": len(cones)}


def _json(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2), for str keys.

    With an indent the standard library falls back to its pure-Python
    encoder, whose closures form a reference cycle on every call; here
    only the containers are laid out, and each leaf still goes through
    json.dumps, so escaping and number formatting are unchanged."""
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f"{inner}{json.dumps(key)}: {_json(obj[key], inner)}"
                 for key in sorted(obj))
        return "{" + ",".join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ",".join(inner + _json(x, inner) for x in obj) + pad + "]"
    return json.dumps(obj)


def _emit(obj, out: str | None) -> None:
    text = _json(obj) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _matrix_json(mat) -> list[list[str]]:
    return [[_frac_str(x) for x in row] for row in mat]


# ---------------------------------------------------------------------------
# command implementations; argparse restricts each action to its choices,
# so no command needs a fallback branch


def cmd_eps(args) -> int:
    w = _parse_vec("--weights", args.weights)
    if args.action == "eval":
        x = _number("--x", args.x)
        if args.method == "closed":
            v = eps_mod.epsilon_closed(args.q, args.r, w, x)
        elif args.method == "oracle":
            v = eps_mod.epsilon_oracle(args.q, args.r, w, x)
        else:
            v = eps_mod.epsilon(args.q, args.r, w, x)
        print(_frac_str(v))
    elif args.action == "delta":
        print(_frac_str(eps_mod.delta(args.q, args.r, w)))
    else:  # inv
        print(_frac_str(eps_mod.epsilon_inv(args.q, args.r, w,
                                            _number("--x", args.x))))
    return 0


def cmd_xi(args) -> int:
    if args.action == "eval":
        out = xi_eval_coords(args.q, args.k,
                             _parse_vec("--coords", args.coords))
        obj = {"image": [_frac_str(x) for x in out]}
    else:  # linearize: the transition map xi_{k,k'}
        m = sigma_kk_map(args.q, args.d, args.k, args.kprime, seed=args.seed)
        obj = {"pieces": sorted(
            ({"cone": _cone_json(c), "matrix": _matrix_json(mat)}
             for c, mat in m.pieces),
            key=lambda p: p["cone"]["rays"])}
    _emit(obj, args.out)
    return 0


def cmd_fan(args) -> int:
    if args.action == "sigma-upper":
        obj = _fan_json(sigma_upper_fan(args.q, args.d, args.k))
    elif args.action == "sigma-k":
        fan, pieces = sigma_k_fan(args.q, args.d, args.k, seed=args.seed)
        obj = _fan_json(fan)
        obj["pieces"] = sorted(
            ({"source": _cone_json(p["source"]),
              "image": _cone_json(p["image"]),
              "matrix": _matrix_json(p["matrix"])} for p in pieces),
            key=lambda p: p["source"]["rays"])
    elif args.action == "join":
        left, _ = sigma_k_fan(args.q, args.d, args.k, seed=args.seed)
        right, _ = sigma_k_fan(args.q, args.d, args.kprime, seed=args.seed)
        obj = _fan_json(left.join(right))
    else:  # refine
        obj = _fan_json(Fan([_parse_cone(args.cone)]).regular_refinement())
    _emit(obj, args.out)
    return 0


def cmd_hilbert(args) -> int:
    cone = _parse_cone(args.cone)
    data = dual_monoid_hilbert_basis(cone)
    _emit({"generators": sorted(list(g) for g in data["generators"]),
           "lineality": sorted(list(g) for g in data["lineality"])},
          args.out)
    return 0


def cmd_bt(args) -> int:
    if args.action == "simplex":
        c = standard_simplex_cone(args.q, args.n, r=args.r)
    else:  # cone
        c = simplex_cone(_parse_rows("--sets", args.sets), args.q, r=args.r)
    _emit(_cone_json(c), args.out)
    return 0


def cmd_tate(args) -> int:
    ms = _parse_ints("--ms", args.ms)
    if args.action == "torsion":
        field = gf(args.q)
        ncoeffs = _parse_ints("--N", args.N)
        if any(not 0 <= c < args.q for c in ncoeffs):
            raise ValueError(f"--N coefficients must lie in 0..{args.q - 1}")
    module, steps = iterate_tate(args.q, args.r, ms, args.precision)
    cp = class_point_of_steps(args.q, args.r, ms)
    obj = {
        "rank": module.rank,
        "z_degree": module.phi_T.z_degree(),
        "top_valuations": [s.top_valuation for s in steps],
        "class_point_powers": [_frac_str(v) for v in cp.values],
        "power_exponent": cp.pow_exponent,
    }
    if args.action == "torsion":
        N = Poly.make(field, ncoeffs)
        actual = torsion_valuations(module, N)
        predicted = predicted_torsion_valuations(args.q, args.r, ms, N)
        obj["torsion_actual"] = [[_frac_str(v), m] for v, m in actual]
        obj["torsion_predicted"] = [[_frac_str(v), m] for v, m in predicted]
        obj["match"] = actual == predicted
        _emit(obj, args.out)
        return 0 if actual == predicted else CHECK_FAILED
    _emit(obj, args.out)
    return 0


def cmd_atlas(args) -> int:
    if args.action == "graph":
        comps, edges = component_graph(args.q, args.m)
        obj = {"components": len(comps), "edges": len(edges),
               "by_kind": {
                   "point": sum(1 for c in comps if c[0] == "point"),
                   "line": sum(1 for c in comps if c[0] == "line"),
                   "flag": sum(1 for c in comps if c[0] == "flag")}}
        if args.dot:
            _write_dot(comps, edges, args.dot)
        _emit(obj, args.out)
        return 0
    alphas = _parse_vec("--alphas", args.alphas)  # charts
    charts = sorted(
        ({"rays": sorted(list(r) for r in c.rays()),
          "monomials": chart_monomials(c)}
         for c in slope_fan(alphas).maximal_cones()),
        key=lambda d: d["rays"])
    _emit({"smooth": slope_fan_is_smooth(alphas),
           "interior_smooth": slope_fan_is_interior_smooth(alphas),
           "determinants": slope_determinants(alphas),
           "charts": charts}, args.out)
    return 0


def _comp_name(c) -> str:
    if c[0] == "point":
        return "P_" + "".join(str(x) for x in c[1])
    if c[0] == "line":
        return "L_" + "".join(str(x) for x in c[1])
    return ("F_" + "".join(str(x) for x in c[1]) + "_"
            + "".join(str(x) for x in c[2]) + f"_{c[3]}")


def _write_dot(comps, edges, path: str) -> None:
    lines = ["graph boundary {"]
    for c in sorted(comps, key=_comp_name):
        lines.append(f'  "{_comp_name(c)}";')
    for a, b in sorted(edges, key=lambda e: (_comp_name(e[0]),
                                             _comp_name(e[1]))):
        lines.append(f'  "{_comp_name(a)}" -- "{_comp_name(b)}";')
    lines.append("}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_satake_check(args) -> int:
    return _report([
        ("satake", "symmetric-identity", True, symmetric_identity_holds(2)),
        ("satake", "division-exponents", [1, 2, 4, 8],
         division_polynomial_exponents(2)),
        ("satake", "gl3-invariance", True, division_polynomial_is_symmetric(2)),
    ])


def _report(rows, shown=lambda row: True, tally: bool = False) -> int:
    """Print (suite, case, expected, got) rows as a TSV report and return
    the exit code.

    A row passes when expected == got.  Failing rows are always printed,
    passing ones when ``shown`` picks them; ``tally`` adds a closing
    "# failures: N" line.
    """
    print("suite\tcase\texpected\tgot\tstatus")
    failures = 0
    for row in rows:
        ok = row[2] == row[3]
        failures += not ok
        if not ok or shown(row):
            print("\t".join(map(str, row + ("pass" if ok else "FAIL",))))
    if tally:
        print(f"# failures: {failures}")
    return CHECK_FAILED if failures else 0


def _rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 64), rng.randint(1, 8))


def cmd_verify(args) -> int:
    return {"identities": _verify_identities, "tate": _verify_tate,
            "sigk3": _verify_sigk3}[args.suite](args)


# how `verify identities` samples each law of epsilon.IDENTITIES: the least
# weight count, the weights drawn beyond it, and x from (rng, max weight)
_IDENTITY_SAMPLERS = {
    "closed-vs-oracle": (1, 0, lambda rng, top: _rand_frac(rng) * top),
    "scaling": (1, 0, lambda rng, top: _rand_frac(rng) * top + top),  # x >= s_n
    "delta-split": (2, 0, None),
    "delta-extend": (1, 1, None),
}


def _verify_identities(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be >= 1")
    rng = random.Random(f"{args.seed}:identities")
    rows = []
    for q in (2, 3):
        for name, law in eps_mod.IDENTITIES.items():
            least, extra, draw_x = _IDENTITY_SAMPLERS[name]
            for case in range(args.count):
                r = rng.randint(1, 3)
                n = rng.randint(least, 3) + extra
                w = sorted(_rand_frac(rng) for _ in range(n))
                x = draw_x(rng, max(w)) if draw_x else None
                rows.append((f"{name}-q{q}", case, *law(q, r, w, x)))
    return _report(rows, shown=lambda row: row[1] < 3, tally=True)


def _verify_tate(args) -> int:
    """The Tate side against the fans.  For each instance: the torsion
    multiset of phi(N) against its counting-function prediction at N = T
    and N = T^2; at level k = 1, 2 the poles of the T^k-torsion against the
    negated nonzero coordinates of xi_1, ..., xi_k at the class point; and
    membership of the class point in each cone of Sigma^(k) against
    membership of its image in the image cone.  The rows at N = T come
    first."""
    at_T, rows = [], []
    for (q, r, ms) in [(2, 1, [1]), (2, 1, [2]), (3, 1, [1]), (2, 1, [1, 3]),
                       (2, 2, [1])]:
        name, case = f"q{q}-r{r}", ",".join(map(str, ms))
        module, _ = iterate_tate(q, r, ms, args.precision)
        cp = class_point_of_steps(q, r, ms)
        T = Poly.T(gf(q))
        coords = set()
        for k, N in ((1, T), (2, T * T)):
            actual = torsion_valuations(module, N)
            (at_T if k == 1 else rows).append((
                f"tate-{name}", case if k == 1 else f"{case} N=T^{k}",
                predicted_torsion_valuations(q, r, ms, N), actual))
            image = xi_eval(q, k, cp)
            coords |= {c for c in image.values if c != 0}
            rows.append((f"poles-{name}", f"{case} k={k}",
                         [_frac_str(-c) for c in sorted(coords, reverse=True)],
                         [_frac_str(v) for v, _ in actual if v < 0]))
            fan = sigma_upper_fan(q, r + len(ms), k)
            rows.append((f"membership-{name}", f"{case} k={k}",
                         [contains_class_point(q, k, sigma, cp)
                          for sigma in fan],
                         [contains_class_point(q, k, _image_cone(q, k, sigma),
                                               image) for sigma in fan]))
    return _report(at_T + rows)


def _verify_sigk3(args) -> int:
    return _report([(f"sigk3-q{args.q}", f"k={k}", k,
                     len(sigma_upper_fan(args.q, 3, k).maximal_cones()))
                    for k in (1, 2, 3)])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # no option prefixes: each option has exactly one spelling
    p = argparse.ArgumentParser(prog="drinfan", allow_abbrev=False,
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices  # command name -> its parser

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    sp = command("eps", "scalar kernel evaluation")
    sp.add_argument("action", choices=["eval", "delta", "inv"])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--weights", default="")
    sp.add_argument("--x", default="0")
    sp.add_argument("--method", choices=["auto", "oracle", "closed"],
                    default="auto")
    sp.set_defaults(func=cmd_eps)

    sp = command("xi", "rescaling maps")
    sp.add_argument("action", choices=["eval", "linearize"])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--kprime", type=int, default=2)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--coords", default="")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_xi)

    sp = command("fan", "comparison and image fans")
    sp.add_argument("action", choices=["sigma-upper", "sigma-k", "join",
                                       "refine"])
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--d", type=int, default=3)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--kprime", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cone", default="")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fan)

    sp = command("hilbert", "dual-monoid Hilbert basis")
    sp.add_argument("--cone", required=True,
                    help="rays as 'a,b;c,d;...'")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_hilbert)

    sp = command("bt", "building cones")
    sp.add_argument("action", choices=["simplex", "cone"])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--sets", default="",
                    help="diagonal exponent vectors as 'a,b;c,d;...'")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_bt)

    sp = command("tate", "Tate-quotient lab")
    sp.add_argument("action", choices=["quotient", "torsion"])
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--ms", required=True, help="lattice exponents '1,3'")
    sp.add_argument("--N", default="0,1",
                    help="level polynomial coefficients, lowest first")
    sp.add_argument("--precision", type=int, default=48)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_tate)

    sp = command("atlas", "boundary atlas")
    sp.add_argument("action", choices=["graph", "charts"])
    sp.add_argument("--q", type=int, default=2)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--alphas", default="", help="slopes '3/2,2'")
    sp.add_argument("--dot", help="write DOT graph to this path")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_atlas)

    sp = command("satake-check", "degree-one symmetric identity checks")
    sp.set_defaults(func=cmd_satake_check)

    sp = command("verify", "verification suites (TSV report)")
    sp.add_argument("suite", choices=["identities", "tate", "sigk3"])
    sp.add_argument("--q", type=int, default=2,
                    help="field size for sigk3; identities always covers "
                         "q = 2 and 3")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=200)
    sp.add_argument("--precision", type=int, default=48)
    sp.set_defaults(func=cmd_verify)

    return p


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--"]:  # the top level has no options for it to end
        argv = argv[1:]
    try:
        # the top level takes no option but --help, so a misspelt option
        # before the command is named here; argparse would take its value
        # for the command name
        for arg in argv:
            if arg == "--" or not arg.startswith("-"):
                break
            if arg not in ("-h", "--help"):
                _parser.error("unrecognized arguments: " + arg)
        args, extra = _parser.parse_known_args(argv)
        if extra:  # name the subcommand, whose usage shows the valid options
            _parser.commands[args.command].error(
                "unrecognized arguments: " + " ".join(extra))
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at shutdown
        return code
    except BrokenPipeError:
        # stdout is gone, so there is nobody to tell; point it at devnull
        # so that the flush at shutdown does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except PrecisionError as exc:
        print(f"error: {exc}; retry at another --precision", file=sys.stderr)
        return PRECISION_TOO_LOW
    except (LinearizationError, AssertionError) as exc:
        print(f"error: certificate failed: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
