"""CLI output formats, determinism, and exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys

from drinfan import cli

CLI = [sys.executable, "-m", "drinfan.cli"]


def run(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


def test_eps_eval():
    out = run("eps", "eval", "--q", "2", "--weights", "2", "--x", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "4"


def test_eps_delta_anchor():
    out = run("eps", "delta", "--q", "2", "--r", "1", "--weights", "1,2")
    assert out.returncode == 0
    assert out.stdout.strip() == "5/7"


def test_eps_inverse_roundtrip():
    fwd = run("eps", "eval", "--q", "2", "--weights", "1,3", "--x", "7/2")
    back = run("eps", "inv", "--q", "2", "--weights", "1,3",
               "--x", fwd.stdout.strip())
    assert back.stdout.strip() == "7/2"


def test_xi_eval_worked_example():
    argv = ("xi", "eval", "--q", "2", "--k", "1", "--coords", "1,2,4")
    # a leading -- ends no top-level option and changes nothing
    for args in (argv, ("--",) + argv):
        out = run(*args)
        assert out.returncode == 0, args
        assert json.loads(out.stdout) == {"image": ["1/2", "1", "3"]}


def test_xi_linearize_json_shape():
    out = run("xi", "linearize", "--q", "2", "--d", "3", "--k", "1",
              "--seed", "11")
    data = json.loads(out.stdout)
    assert data["pieces"]
    for piece in data["pieces"]:
        assert set(piece) == {"cone", "matrix"}
        assert all(isinstance(row, list) for row in piece["matrix"])


def test_fan_sigma_upper_counts():
    out = run("fan", "sigma-upper", "--q", "2", "--d", "3", "--k", "2")
    data = json.loads(out.stdout)
    maximal = [c for c in data["cones"]
               if c["dim"] == max(k["dim"] for k in data["cones"])]
    assert len(maximal) == 2


def test_hilbert_basis():
    out = run("hilbert", "--cone", "1,1;1,2")
    data = json.loads(out.stdout)
    assert sorted(map(tuple, data["generators"])) == [(-1, 1), (2, -1)]


def test_bt_cone():
    out = run("bt", "cone", "--q", "2", "--sets", "0,0;0,1")
    data = json.loads(out.stdout)
    assert sorted(map(tuple, data["rays"])) == [(1, 1), (1, 2)]


def test_tate_quotient_anchor():
    out = run("tate", "quotient", "--q", "2", "--r", "1", "--ms", "1,3",
              "--precision", "48")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["top_valuations"] == [1, 5]
    assert data["rank"] == 3
    assert data["z_degree"] == 8


def test_tate_torsion_exit_zero_on_match():
    out = run("tate", "torsion", "--q", "2", "--r", "1", "--ms", "2",
              "--N", "0,1", "--precision", "48")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["match"] is True
    assert data["torsion_actual"] == data["torsion_predicted"]


def test_atlas_graph_counts_and_dot(tmp_path):
    dot = tmp_path / "graph.dot"
    out = run("atlas", "graph", "--q", "2", "--m", "0", "--dot", str(dot))
    data = json.loads(out.stdout)
    assert data["components"] == 14
    assert data["edges"] == 21
    text = dot.read_text()
    assert text.startswith("graph ")
    assert text.count(" -- ") == 21


def test_atlas_charts():
    out = run("atlas", "charts", "--alphas", "3/2")
    data = json.loads(out.stdout)
    assert data["determinants"] == [1, 2]
    assert data["interior_smooth"] is True
    assert data["smooth"] is False


def test_satake_check_all_pass():
    out = run("satake-check")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].split("\t") == ["suite", "case", "expected", "got",
                                    "status"]
    assert all(l.split("\t")[-1] == "pass" for l in lines[1:])


def test_verify_tate_checks_every_law(capsys):
    # the torsion rows at N = T of the first four instances come first,
    # with their text unchanged
    head = [
        "suite\tcase\texpected\tgot\tstatus",
        "tate-q2-r1\t1\t[(Fraction(-1, 2), 2), (Fraction(1, 1), 1)]\t"
        "[(Fraction(-1, 2), 2), (Fraction(1, 1), 1)]\tpass",
        "tate-q2-r1\t2\t[(Fraction(-1, 1), 2), (Fraction(1, 1), 1)]\t"
        "[(Fraction(-1, 1), 2), (Fraction(1, 1), 1)]\tpass",
        "tate-q3-r1\t1\t[(Fraction(-1, 3), 6), (Fraction(1, 2), 2)]\t"
        "[(Fraction(-1, 3), 6), (Fraction(1, 2), 2)]\tpass",
        "tate-q2-r1\t1,3\t[(Fraction(-1, 1), 4), (Fraction(-1, 2), 2), "
        "(Fraction(1, 1), 1)]\t[(Fraction(-1, 1), 4), (Fraction(-1, 2), 2), "
        "(Fraction(1, 1), 1)]\tpass",
    ]
    for precision in ("48", "64"):
        capsys.readouterr()
        assert cli.main(["verify", "tate", "--precision", precision]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:5] == head
        families = [line.split("\t")[0].split("-")[0] for line in lines[1:]]
        # five instances: torsion at N = T and T^2, poles and membership
        # at k = 1, 2
        assert {f: families.count(f) for f in set(families)} == \
            {"tate": 10, "poles": 10, "membership": 10}
        assert all(line.endswith("\tpass") for line in lines[1:])


def test_verify_identities_small():
    out = run("verify", "identities", "--q", "2", "--seed", "3",
              "--count", "10")
    assert out.returncode == 0
    assert "# failures: 0" in out.stdout


def test_determinism_byte_identical():
    cmds = [
        ("xi", "linearize", "--q", "2", "--d", "3", "--k", "2",
         "--seed", "42"),
        ("fan", "sigma-k", "--q", "2", "--d", "3", "--k", "2"),
        ("verify", "identities", "--q", "3", "--seed", "42",
         "--count", "15"),
    ]
    for cmd in cmds:
        a = run(*cmd)
        b = run(*cmd)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout


def test_exit_code_on_bad_input():
    assert run("eps", "eval", "--q", "1", "--weights", "1",
               "--x", "1").returncode == 2
    assert run("no-such-command").returncode == 2


def test_closed_stdout_exits_141_silently():
    # the read end of the stdout pipe is closed before the command writes:
    # 5 bytes fail at the final flush, 35 kB inside the write itself
    for args in (("eps", "delta", "--q", "2", "--r", "1", "--weights", "1,2"),
                 ("fan", "sigma-upper", "--q", "2", "--d", "5", "--k", "2")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(CLI + list(args), stdout=write_end,
                                 stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (141, ""), args


def test_out_file_matches_stdout(tmp_path):
    path = tmp_path / "fan.json"
    a = run("fan", "sigma-upper", "--q", "2", "--d", "3", "--k", "1")
    b = run("fan", "sigma-upper", "--q", "2", "--d", "3", "--k", "1",
            "--out", str(path))
    assert b.returncode == 0
    assert path.read_text() == a.stdout


def test_bt_cone_odd_q():
    out = run("bt", "cone", "--q", "3", "--sets", "0,1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["rays"] == [[1, 3]]


def test_bad_vectors_exit_2(tmp_path):
    missing = tmp_path / "missing"  # a directory that does not exist
    for args in (("hilbert", "--cone", "1,0;0"),
                 ("bt", "cone", "--q", "2", "--sets", "0,1;0"),
                 ("bt", "simplex", "--q", "1", "--n", "2"),
                 ("bt", "simplex", "--q", "6", "--n", "2"),
                 ("eps", "eval", "--q", "6", "--weights", "2", "--x", "3"),
                 ("xi", "eval", "--q", "6", "--coords", "1,2"),
                 ("fan", "sigma-upper", "--q", "6"),
                 ("bt", "simplex", "--q", "2", "--r", "-1"),
                 ("bt", "simplex", "--q", "2", "--r", "0"),
                 ("tate", "quotient", "--q", "2", "--r", "0", "--ms", "1"),
                 ("xi", "linearize", "--q", "2", "--d", "3", "--k", "0",
                  "--kprime", "1"),
                 ("xi", "linearize", "--q", "2", "--d", "3", "--k", "1",
                  "--kprime", "0"),
                 ("xi", "eval", "--q", "2", "--k", "-1", "--coords", "1,2"),
                 ("verify", "identities", "--count", "0"),
                 ("verify", "identities", "--count", "-3"),
                 ("atlas", "graph", "--m", "-1"),
                 ("tate", "quotient", "--q", "2", "--ms", "1",
                  "--precision", "0"),
                 ("tate", "torsion", "--q", "2", "--ms", "1",
                  "--precision", "-1"),
                 ("verify", "tate", "--precision", "0"),
                 # the removed duplicates of xi linearize, eps eval
                 # --method closed, --coords and --count
                 ("fan", "sigma-kk", "--q", "2", "--d", "3", "--k", "2",
                  "--kprime", "1"),
                 ("eps", "closed", "--q", "2", "--weights", "1", "--x", "2"),
                 ("xi", "eval", "--q", "2", "--point", "1,2"),
                 ("verify", "identities", "--trials", "3"),
                 # option prefixes are no spellings of their options
                 ("verify", "identities", "--cou", "1", "--se", "2"),
                 ("xi", "eval", "--q", "2", "--coo", "1,2,4"),
                 ("--coo", "1", "xi", "eval", "--q", "2", "--coords", "1,2"),
                 ("eps", "eval", "--q", "2", "--weights", "1", "--x", "2",
                  "--meth", "oracle"),
                 ("tate", "quotient", "--q", "2", "--ms", "1",
                  "--prec", "8"),
                 # an empty cone or point is no default
                 ("fan", "refine"),
                 ("hilbert", "--cone", ""),
                 ("xi", "eval", "--q", "2"),
                 # a file that cannot be written
                 ("hilbert", "--cone", "1,0;0,1",
                  "--out", str(missing / "x.json")),
                 ("atlas", "graph", "--q", "2", "--dot", str(missing / "x.dot")),
                 # a level coefficient outside F_q
                 ("tate", "torsion", "--q", "4", "--ms", "1", "--N", "0,7"),
                 ("tate", "torsion", "--q", "2", "--ms", "1", "--N", "0,5")):
        out = run(*args)
        assert out.returncode == 2, args
        assert out.stderr.strip() and "Traceback" not in out.stderr, args
    # a number that does not parse is named with its option
    for option, args in (
            ("--x", ("eps", "eval", "--q", "2", "--x", "1/0")),
            ("--coords", ("xi", "eval", "--q", "2", "--coords", "1/0,2")),
            ("--cone", ("hilbert", "--cone", "1,a")),
            ("--N", ("tate", "torsion", "--q", "2", "--ms", "1",
                     "--N", "0,x")),
            ("--ms", ("tate", "quotient", "--q", "2", "--ms", "1,"))):
        out = run(*args)
        assert out.returncode == 2, args
        assert out.stderr.startswith(f"error: {option}: "), out.stderr
        assert "Traceback" not in out.stderr, args


def test_misspelt_option_before_the_command_is_named(capsys):
    argv = ["--coo", "1", "xi", "eval", "--q", "2", "--coords", "1,2"]
    assert cli.main(argv) == 2
    assert "unrecognized arguments: --coo" in capsys.readouterr().err


def test_precision_error_exits_3():
    out = run("tate", "quotient", "--q", "2", "--ms", "1,3",
              "--precision", "32")
    assert out.returncode == 3
    assert "--precision" in out.stderr and "Traceback" not in out.stderr


def test_in_process_calls_match_fresh_processes(capsys):
    # one parser serves every call: options of one call must not leak
    # into the defaults of the next
    sequences = [
        [("eps", "eval", "--q", "2", "--weights", "1,3", "--x", "7/2",
          "--method", "oracle", "--r", "3"),
         ("eps", "eval", "--q", "2", "--weights", "1,3", "--x", "7/2")],
        [("xi", "eval", "--q", "2", "--k", "3", "--coords", "1,2,4"),
         ("xi", "eval", "--q", "2", "--coords", "1,2,4")],
    ]
    for seq in sequences:
        outs = []
        for argv in seq:
            capsys.readouterr()
            assert cli.main(list(argv)) == 0
            fresh = run(*argv)
            assert fresh.returncode == 0
            assert capsys.readouterr().out == fresh.stdout, argv
            outs.append(fresh.stdout)
        assert outs[0] != outs[1], seq


def test_empty_weights_still_check_q_and_r():
    for args in (("eps", "eval", "--q", "6", "--x", "3"),
                 ("eps", "delta", "--q", "6"),
                 ("eps", "eval", "--q", "2", "--r", "0", "--x", "3"),
                 ("xi", "eval", "--q", "6", "--coords", "0,0")):
        out = run(*args)
        assert out.returncode == 2, args
        assert out.stderr.strip() and "Traceback" not in out.stderr, args
    out = run("eps", "eval", "--q", "2", "--x", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "3"


def test_low_precision_lost_coefficient_exits_3():
    for q, ms, precision in (("2", "1,3", "2"), ("2", "1,4", "3"),
                             ("3", "1,3", "3")):
        out = run("tate", "quotient", "--q", q, "--r", "1", "--ms", ms,
                  "--precision", precision)
        assert out.returncode == 3, (q, ms, precision)
        assert "Traceback" not in out.stderr, (q, ms, precision)


def test_parallelepiped_over_the_cap_exits_2():
    # the dual of cone{(1,0),(1,N)} is one simplex of index N
    for args in (("hilbert", "--cone", "1,0;1,20000001"),
                 ("fan", "refine", "--cone", "1,0;1,20000001")):
        out = run(*args)
        assert out.returncode == 2, args
        assert "lattice points" in out.stderr, args


def test_fan_output_bytes_pinned(capsys):
    # sha256 of stdout recorded before face lattices came from incidence
    # and maximal cones from Fan.add (the first three), and before the cone
    # engine became integer-only (the rest); any change in output shows here
    pinned = {
        "fan refine --cone 3,0,5;1,2,5;5,1,4;4,5,0":
            "d58acb6d247d3c6be9c409b8dfd7c7e0ea3a1f97839735d15e70a755f1f661dc",
        "fan join --q 2 --d 4 --k 1 --kprime 2":
            "3080785bf69d9ad8532de99fe369b08b06daa4c7ff5eb4da18db7dfc7e32378f",
        "fan sigma-upper --q 2 --d 5 --k 2":
            "1ac990a01b75bac43a7b7a616fda2dc31f369e28776bd4737f90ebf769e08549",
        # pointed, full-dimensional: the dual monoid is pointed
        "hilbert --cone 1,2,3;2,-1,1;0,1,-1":
            "0e723715cf9808b60d1c2477965df7e9acdf2956e330438a4c754d56716532c0",
        # not full-dimensional: the dual has lineality
        "hilbert --cone 3,1,0,0;1,3,0,0;0,0,1,2":
            "b7a7a1bc2d047578c5385d5a672f5c433b133869948fd1124d433faa171c38b5",
        "bt cone --q 2 --sets 0,0,1;0,1,1":
            "23af9951cfad2c3783e244410b24b57f4a2656262aa94299615f86504a23f3b7",
        "atlas charts --alphas 3/2,5/2,4":
            "8c818e3973f4a7bd7b341856835b6746eb2269bf5b5372e4f33db3781d8c719a",
        "satake-check":
            "2782f1159b7349710d777cd5f478930878b809def91d803181a8589be8b7f83b",
        "verify identities --q 3 --seed 4 --count 30":
            "dd454b9d139ae735a6351a4654911425753434960dccfccd7730fb4b6e267461",
        "verify sigk3 --q 3":
            "61d3e8e7926bdd06402efa1ff5b3b408b6f5d9b28ec1ecbab1ea5913c87830de",
        # recorded before linearize_xi evaluated its samples by one integer
        # stage chain and sigma_kk_map shared its samples between levels
        "xi linearize --q 2 --d 4 --k 1 --kprime 2":
            "48ea13b5ce3e0b0fb735830e82ad8be8dfc0505d38cb77e808f72559c1e5accb",
        "fan sigma-k --q 3 --d 4 --k 2":
            "249f8f02cc1d0ee0a3f55ca088b3b0452548a27ad3eb7b5860c168eb60e10989",
    }
    for command, digest in pinned.items():
        assert cli.main(command.split()) == 0, command
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def test_json_text_matches_json_dumps():
    rng = random.Random(5)
    leaves = ["", "a/b", 'quo"te\\', "tab\tnew\nline", "é→\U0001d538",
              "\x00\x1f", 0, -7, 2 ** 80, 1.5, -0.0, 1e300, True, False, None]

    def draw(depth):
        kind = rng.randrange(4 if depth < 4 else 1)
        if kind == 0:
            return rng.choice(leaves)
        if kind == 1:
            return [draw(depth + 1) for _ in range(rng.randrange(4))]
        if kind == 2:
            return tuple(draw(depth + 1) for _ in range(rng.randrange(3)))
        return {rng.choice(["a", "b", "Z", "é", "k\n", ""]) + str(i):
                draw(depth + 1) for i in range(rng.randrange(4))}

    for _ in range(300):
        obj = draw(0)
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_output_leaves_no_garbage():
    # the standard library's indenting encoder leaves a reference cycle per
    # call; JSON output must leave nothing for the cyclic collector
    commands = (["xi", "eval", "--q", "2", "--coords", "1,2,4"],
                ["xi", "linearize", "--q", "2", "--d", "3"],
                ["fan", "sigma-upper", "--q", "2", "--d", "3", "--k", "2"])
    enabled = gc.isenabled()
    gc.disable()
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0  # warm-up: parser, caches
            gc.collect()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert cli.main(argv) == 0
            assert out.getvalue().startswith("{\n"), argv
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


def test_misspelt_option_reports_the_subcommand_usage():
    out = run("xi", "eval", "--q", "2", "--coo", "1,2,4")
    assert out.returncode == 2
    assert "drinfan xi" in out.stderr and "--coords" in out.stderr
    assert "unrecognized arguments: --coo 1,2,4" in out.stderr
    assert out.stdout == ""
    assert cli.main(["xi", "eval", "--q", "2", "--coo", "1,2,4"]) == 2
