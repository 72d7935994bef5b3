import dataclasses
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import coxstokes
from character_reference import MULTIPLIER_CONSTANTS
from coxstokes import characters, cli, oracle, weightrep
from coxstokes.chevalley import InvariantViolation, build_chevalley
from coxstokes.rootcore import INT_LIMIT, RANK_CAP, RankScaleError, build_root_system, check_bound
from coxstokes.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(args):
    return main(args)


def test_describe(tmp_path, capsys):
    out = tmp_path / "a2.json"
    assert run(["describe", "--type", "A2", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["coxeter_number"] == 3
    assert doc["num_roots"] == 6


def test_describe_bad_type():
    assert run(["describe", "--type", "A1"]) == EXIT_DOMAIN
    assert run(["describe", "--type", "Z9"]) == EXIT_DOMAIN


def test_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["describe"])
    assert exc.value.code == EXIT_USAGE


def test_plane_e8_sidecar(tmp_path):
    js = tmp_path / "e8.json"
    svg = tmp_path / "e8.svg"
    assert run(["plane", "--type", "E8", "--json-out", str(js), "--svg-out", str(svg)]) == EXIT_OK
    doc = json.loads(js.read_text())
    assert doc["spokes"] == 60 and doc["wheels"] == 8
    text = svg.read_text()
    assert text.startswith("<svg") and "d60" in text


def test_plane_deterministic_bytes(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        assert run(["plane", "--type", "D4", "--json-out", str(tmp_path / "x.json"),
                    "--svg-out", str(path)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_single(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--type", "B3", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] and any(c["name"] == "apposition_spectrum" for c in doc["checks"])
    assert "skipped" not in doc


def test_verify_spectrum_skipped_by_cap(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "SPEC_DIM_CAP", 5)
    out = tmp_path / "v.json"
    assert run(["verify", "--type", "B3", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(c["name"] != "apposition_spectrum" for c in doc["checks"])
    # the check left out is named, with dim g and the cap, in the document and on stderr
    reason = "dim g = 21 is above SPEC_DIM_CAP = 5"
    assert doc["skipped"] == [{"name": "apposition_spectrum", "reason": reason}]
    assert f"[PASS] B3 (skipped apposition_spectrum: {reason})" in capsys.readouterr().err


def test_stokes_roundtrip(tmp_path):
    out = tmp_path / "s.json"
    assert run(["stokes", "--type", "A2", "--m", "0,0", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["spectrum_check"]["ok"]
    assert doc["k1_support"] == [[0, 1]]
    assert max(abs(re) + abs(im) for re, im in doc["t"]) < 1e-10


MATRICES = ("m0", "k1", "k2", "a_gamma", "p0")
BENCH_POINTS = tuple(json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
))


def v2_matrix(a):
    """A dense matrix as the schema-v2 stokes document wrote it."""
    return [[[round(float(z.real), 15), round(float(z.imag), 15)] for z in row] for row in a]


@pytest.mark.parametrize("point", BENCH_POINTS)
def test_stokes_matrices_are_opt_in_and_as_in_v2(point, monkeypatch, capsys):
    # --matrices adds the five dense matrices, written as v2 wrote them, and
    # changes nothing else; the multipliers are c_i t_i with the type's constants
    type_name, m = point.split("|")
    made = []
    real = cli.stokes_from_asymptotics

    def recording(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, "stokes_from_asymptotics", recording)
    docs = []
    for extra in ([], ["--matrices"]):
        assert run(["stokes", "--type", type_name, "--m=" + m, *extra]) == EXIT_OK
        docs.append(json.loads(capsys.readouterr().out))
    plain, full = docs
    assert plain["schema_version"] == 3 and not set(MATRICES) & set(plain)
    assert {k: v for k, v in full.items() if k not in MATRICES} == plain
    for key in MATRICES:
        assert json.dumps(full[key]) == json.dumps(v2_matrix(getattr(made[-1], key))), key
    mult = [complex(*z) for key in ("k1", "k2") for z in plain["multipliers"][key]]
    t = [complex(*z) for z in plain["t"]]
    want = MULTIPLIER_CONSTANTS[type_name]
    assert max(abs(a - c * b) for a, b, c in zip(mult, t, want)) <= 1e-12 * max(1, *map(abs, t))


def test_default_e6_stokes_output_is_small(capsys):
    assert run(["stokes", "--type", "E6", "--m=0,0,0,0,0,0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len(out.encode()) < 4096
    assert not set(MATRICES) & set(json.loads(out))


def test_character_residual_is_reported_not_enforced(capsys):
    # the D4 point where the power-sum route lands on the class with the
    # half-spin nodes swapped (the strict xfail in test_steinberg) passes with
    # a character residual of 3e-2; the closed form and type A sit at rounding
    for argv, lo, hi in (
        (["--type", "D4", "--m=-3/2,-11/4,-7/4,-3/2"], 2.5e-2, 3.5e-2),
        (["--type", "F4", "--m=1,3,2,0"], 0.0, 1e-14),
        (["--type", "B3", "--m=0,1,0"], 0.0, 1e-14),
        (["--type", "A3", "--m=1/3,-1/5,1/7"], 0.0, 0.0),
    ):
        assert run(["stokes", *argv]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["character_residual"]
        assert lo <= res <= hi, (argv, res)


def test_stokes_inadmissible(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(["stokes", "--type", "A2", "--m=-5,0", "--json-out", str(out)]) == EXIT_DOMAIN
    doc = json.loads(out.read_text())
    assert doc["alcove"]["admissible"] is False
    # m as the rationals given, not as Fraction reprs
    assert run(["stokes", "--type", "B3", "--m=100,0,0", "--json-out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "domain error: m = -5,0 is not admissible (see slack report)\n"
        "domain error: m = 100,0,0 is not admissible (see slack report)\n")


@pytest.mark.parametrize("type_name,rep", [("B3", "0"), ("B3", "-1"), ("B3", "4"), ("G2", "3")])
def test_stokes_rep_outside_the_rank_is_a_domain_error(type_name, rep, capsys):
    assert run(["stokes", "--type", type_name, "--rep=" + rep]) == EXIT_DOMAIN
    assert f"outside 1..{type_name[1]}" in capsys.readouterr().err


def test_stokes_rep_without_a_registered_representation_fails_first(capsys):
    # the class solve needs the registered representation, so E7 fails before
    # its 56-dim V(omega_7) is built
    assert run(["stokes", "--type", "E7", "--rep", "7"]) == EXIT_DOMAIN
    assert "no registered representation for E7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "type_name,m", [("B3", "-1/8,-5/4,-15/8"), ("G2", "-45/8,-13/4"), ("D4", "-7/8,-1,-1/2,-3/4")]
)
def test_stokes_t_does_not_depend_on_rep(tmp_path, type_name, m):
    # the class is solved in the registered representation; --rep only picks
    # the one M0, K1 and K2 are assembled and checked in (JSON floats
    # round-trip, so equal lists are bit-identical t)
    docs = []
    for extra in ([], ["--rep", "2"]):
        out = tmp_path / "s.json"
        argv = ["stokes", "--type", type_name, "--m=" + m, "--json-out", str(out), *extra]
        assert run(argv) == EXIT_OK
        docs.append(json.loads(out.read_text()))
    assert docs[0]["rep"] != docs[1]["rep"]
    assert docs[0]["t"] == docs[1]["t"]


# F4 and E6 at m = 0 and at every alcove vertex, with the exit code and, where
# pinned, the exact class point t (Gamma order).  F4 v0 and E6 v0, v1 and v6
# solve to their class but miss the 1e-7 bound of the float characteristic
# polynomial check (exit 3).
F4_E6_CENSUS = [
    ("F4", "0,0,0,0", EXIT_OK, (0, 0, 0, 0)),
    ("F4", "-11,-21,-30,-16", EXIT_VERIFY, (3732, 27, 79, 378)),
    ("F4", "1,-3,-6,-4", EXIT_OK, None),
    ("F4", "1,3,2,0", EXIT_OK, None),
    ("F4", "1,3,6,2", EXIT_OK, None),
    ("F4", "1,3,6,8", EXIT_OK, None),
    ("E6", "0,0,0,0,0,0", EXIT_OK, (0, 0, 0, 0, 0, 0)),
    ("E6", "-8,-11,-15,-21,-15,-8", EXIT_VERIFY, (79, 378, 378, 27, 3732, 27)),
    ("E6", "8,1,5,3,1,0", EXIT_VERIFY, None),
    ("E6", "-2,1,-3,-3,-3,-2", EXIT_OK, None),
    ("E6", "2,1,5,3,1,0", EXIT_OK, None),
    ("E6", "0,1,1,3,1,0", EXIT_OK, None),
    ("E6", "0,1,1,3,5,2", EXIT_OK, None),
    ("E6", "0,1,1,3,5,8", EXIT_VERIFY, None),
]


def test_f4_and_e6_census(tmp_path):
    out = tmp_path / "s.json"
    for type_name, m, code, t_exact in F4_E6_CENSUS:
        assert run(["stokes", "--type", type_name, "--m=" + m, "--json-out", str(out)]) == code, m
        if t_exact is not None:
            t = [complex(*z) for z in json.loads(out.read_text())["t"]]
            assert max(abs(a - b) for a, b in zip(t, t_exact)) <= 1e-12 * max(1, *t_exact), m


def test_monodromy_pass_and_fail(tmp_path, monkeypatch):
    out = tmp_path / "m.json"
    argv = ["monodromy", "--rank", "2", "--k", "0,1,1", "--json-out", str(out)]
    assert run(argv) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["passed"] and doc["max_coeff_residual"] < 1e-6 and doc["tolerance"] == 1e-6
    # the JSON verdict, its reported bound and MonodromyReport.ok all read one constant
    monkeypatch.setattr(oracle, "MONODROMY_TOL", 1e-30)
    assert run(argv) == EXIT_VERIFY
    doc = json.loads(out.read_text())
    assert not doc["passed"] and doc["tolerance"] == 1e-30
    assert not oracle.numerical_monodromy(oracle.build_system(2, [1, 1, 1], [0, 1, 1], 1.0)).ok


@pytest.mark.parametrize("argv", [
    ["plane", "--type", "A2", "--tol-ray", "1"],
    ["verify", "--type", "A2", "--tol-ray", "1"],
    ["verify", "--type", "A2", "--tol-spec", "1"],
    ["verify", "--type", "A2", "--spec-dim-cap", "5"],
    ["monodromy", "--rank", "2", "--tol", "1"],
    ["monodromy", "--rank", "2", "--order", "3"],
])
def test_no_option_moves_a_verdict_bound(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["stokes", "--type", "A2", "--m", "1/0,0"],
    ["stokes", "--type", "A2", "--m", "nan,0"],
    ["monodromy", "--rank", "2", "--c", "x"],
    ["monodromy", "--rank", "2", "--k", "1/0"],
])
def test_bad_rationals_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"error: argument {argv[3]}: not comma-separated rationals" in capsys.readouterr().err


def test_bad_rational_exits_without_traceback():
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "coxstokes.cli", "stokes", "--type", "A2", "--m", "1/0,0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.returncode == EXIT_USAGE and out.stdout == ""
    assert "error: argument --m" in out.stderr and "Traceback" not in out.stderr


def test_monodromy_domain_error():
    assert run(["monodromy", "--rank", "2", "--k", "0,1,2"]) == EXIT_DOMAIN


@pytest.mark.parametrize("argv, reason", [
    (["--z", "1e307", "--k", "0,1,1"], r"leading coefficient t = \(s/N\) c\^\(1/s\) z\^\(N/s\) = inf "),
    (["--k", "4", "--z", "1e-70"], r"leading coefficient t = \(s/N\) c\^\(1/s\) z\^\(N/s\) = 0 "),
    (["--k=4,-1,-1", "--z", "1e-70"], r"leading term \(s/N\) z eta_\+ has entries 0 "),
    (["--k=0,1,1", "--z", "1e-70"], r"formal recursion to order 5 leaves the finite floats"),
    (["--k=0,1,1", "--z", "1e-150"], r"formal recursion to order 5 leaves the finite floats"),
    (["--k=2,0,0", "--z", "1e-70"], r"formal recursion to order 5 leaves the finite floats"),
])
def test_extreme_z_is_refused_before_anything_overflows(argv, reason, capsys):
    # before: an OverflowError traceback (exit 1), numpy's "invalid value
    # encountered in divide" before exit 2, a LinAlgError traceback, and for
    # the last three exit 0 after overflow warnings, with NaN in the document
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["monodromy", "--rank", "2", *argv]) == EXIT_DOMAIN
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and re.search(reason, err)


def test_out_of_scale_rank_is_a_domain_error(monkeypatch, capsys):
    # no key scale bounds the Chevalley tables: A27 stops at the character-table
    # cap, as A26 does
    assert run(["monodromy", "--rank", "27", "--k", "0"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "domain error: character table for A27 omega_8 has dimension 3108105,"
        " out of desk scale (cap 1000000)\n")
    # A26 stops at the character-table cap, at the first node over it in Gamma
    # order, before any table of the type is built
    built = []
    freudenthal = characters._freudenthal
    monkeypatch.setattr(characters, "_freudenthal",
                        lambda rs, lam: built.append(str(rs.type)) or freudenthal(rs, lam))
    for argv in (["monodromy", "--rank", "26", "--k", "0"], ["stokes", "--type", "A26"]):
        assert run(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == (
            "domain error: character table for A26 omega_8 has dimension 2220075,"
            " out of desk scale (cap 1000000)\n")
    # lowered from 10^6 to 1000, the cap is hit at omega_4
    monkeypatch.setattr(characters, "DEFAULT_DIM_CAP", 1000)
    assert run(["monodromy", "--rank", "26", "--k", "0"]) == EXIT_DOMAIN
    assert "domain error: character table for A26 omega_4 has dimension 17550" in (
        capsys.readouterr().err)
    assert "A26" not in built
    # elsewhere an int64 bound stays a broken invariant
    with pytest.raises(InvariantViolation, match="could overflow int64"):
        check_bound(INT_LIMIT, "a product")


@pytest.mark.parametrize("rank, node, dim", [(26, 8, 2220075), (27, 8, 3108105), (45, 6, 9366819)],
                         ids=["A26", "A27", "A45"])
def test_over_cap_monodromy_is_refused_before_any_algebra_is_built(rank, node, dim, monkeypatch,
                                                                    capsys):
    # build_system checks the character cap first: A26 used to build its
    # representation and Chevalley tables before the class solve refused it
    def refuse(rs, lam):
        raise AssertionError(f"built {rs.type} {lam}")

    monkeypatch.setattr(weightrep, "_build_representation", refuse)
    cached = [f.cache_info() for f in (weightrep.registered_representation, build_chevalley)]
    start = time.perf_counter()
    assert run(["monodromy", "--rank", str(rank), "--k", "0"]) == EXIT_DOMAIN
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"domain error: character table for A{rank} omega_{node} has dimension {dim},"
        " out of desk scale (cap 1000000)\n")
    assert [f.cache_info() for f in (weightrep.registered_representation, build_chevalley)] == cached


def _domain_edges():
    """argv, exit code and first stderr line of each row of README's domain-edge table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("### Domain edges\n", 1)[1].split("\n###", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [pytest.param(cmd.strip("|` ").split(), int(code), err.strip("`"), id=cmd.strip("|` "))
            for cmd, _, _, code, err, _ in rows]


@pytest.mark.parametrize("argv, code, err", _domain_edges())
def test_domain_edge_table(argv, code, err, capsys):
    assert run(argv) == code
    assert capsys.readouterr().err.splitlines()[0] == err


_CAP_ERR = "domain error: character table for {} has dimension {}, out of desk scale (cap 1000000)\n"


@pytest.mark.parametrize("argv,err", [
    (["stokes", "--type", "A26"], _CAP_ERR.format("A26 omega_8", 2220075)),
    (["stokes", "--type", "B11"], _CAP_ERR.format("B11 omega_10", 1144066)),
    (["stokes", "--type", "A26", "--rep", "9"], _CAP_ERR.format("A26 omega_9", 4686825)),
    (["stokes", "--type", "A26", "--m=-3" + ",0" * 25],
     "domain error: m = -3" + ",0" * 25 + " is not admissible (see slack report)\n"),
], ids=["A26", "B11", "A26-rep9", "A26-inadmissible"])
def test_over_cap_stokes_is_refused_before_any_representation_is_built(argv, err, monkeypatch,
                                                                        capsys):
    # the refusals keep their order (--rep, then admissibility, then the class
    # solve's nodes in Gamma order), and no representation is asked for
    def refuse(rs, lam):
        raise AssertionError(f"built {rs.type} {lam}")

    monkeypatch.setattr(weightrep, "_build_representation", refuse)
    cached = [f.cache_info() for f in (weightrep.fundamental_representation,
                                       weightrep.registered_representation)]
    assert run(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == err
    assert [f.cache_info() for f in (weightrep.fundamental_representation,
                                     weightrep.registered_representation)] == cached


@pytest.mark.parametrize("argv", [
    ["describe", "--type", "A300"],
    ["plane", "--type", "A300"],
    ["verify", "--type", "A300"],
    ["stokes", "--type", "A300"],
    ["monodromy", "--rank", "300", "--k", "0"],
])
def test_out_of_scale_root_system_is_refused_before_it_is_built(argv, capsys):
    # the Fraction Gram inverse is O(l^3): describe A300 ran past 3 minutes
    start = time.perf_counter()
    assert run(argv) == EXIT_DOMAIN
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "domain error: root system A300 has rank 300, out of desk scale (cap 50)\n")
    with pytest.raises(RankScaleError):
        build_root_system(f"D{RANK_CAP + 1}")


@pytest.mark.parametrize("argv", [
    ["stokes", "--type", "B3", "--m=-1/8,-5/4,-15/8", "--json-out"],
    ["stokes", "--type", "B10", "--json-out"],
    ["plane", "--type", "D4", "--json-out"],
    ["plane", "--type", "D4", "--svg-out"],
])
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path, capsys):
    # refused before the computation: a cold B10 op takes seconds
    path = tmp_path / "missing" / "out"
    start = time.perf_counter()
    assert run([*argv, str(path)]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: cannot write {path}: No such file or directory\n"


def test_failed_op_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["monodromy", "--rank", "45", "--k", "0", "--json-out", str(out)]) == EXIT_DOMAIN
    assert not out.exists()
    # a file that was there keeps its contents
    out.write_text("kept\n")
    assert run(["monodromy", "--rank", "45", "--k", "0", "--json-out", str(out)]) == EXIT_DOMAIN
    assert out.read_text() == "kept\n"
    capsys.readouterr()


def test_monodromy_integrator_failure_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "ERROR_TOL", 1e-20)
    assert run(["monodromy", "--rank", "2", "--k", "0,1,1"]) == EXIT_VERIFY
    assert "verification failure: integrator failed" in capsys.readouterr().err


def test_schema_validator_built_once_and_still_applied():
    assert cli._validator("describe") is cli._validator("describe")
    with pytest.raises(cli.SchemaViolation, match=r"\$ fails required: 'rank'"):
        cli._validate("describe", {"schema_version": 1, "type": "A2"})
    assert InvariantViolation in cli.VERIFY_ERRORS
    assert cli.SchemaViolation in cli.VERIFY_ERRORS


def test_schema_violation_is_a_verification_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_plane_doc", lambda rs, plane: {"schema_version": 1})
    assert run(["plane", "--type", "A2"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verification failure: coxstokes/plane/v1: $ fails required" in captured.err


def test_slack_report_and_results_wrapper_are_checked(tmp_path, monkeypatch, capsys):
    out = tmp_path / "doc.json"
    assert run(["stokes", "--type", "A2", "--m=-5,0", "--json-out", str(out)]) == EXIT_DOMAIN
    cli._validate("slack", json.loads(out.read_text()))
    assert run(["verify", "--all", "--json-out", str(out)]) == EXIT_OK
    cli._validate("verify_all", json.loads(out.read_text()))
    capsys.readouterr()

    # a slack report whose verdict is not a boolean, and a wrapper without entries
    real_alcove_map = cli.alcove_map
    monkeypatch.setattr(
        cli, "alcove_map", lambda rs, m: dataclasses.replace(real_alcove_map(rs, m), admissible=0)
    )
    assert run(["stokes", "--type", "A2", "--m=-5,0"]) == EXIT_VERIFY
    monkeypatch.setattr(cli, "STANDARD_TYPES", ())
    assert run(["verify", "--all"]) == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "coxstokes/slack/v1: $.alcove.admissible fails const" in captured.err
    assert "coxstokes/verify_all/v1: $.results fails minItems" in captured.err


_UNDER_O = """
import contextlib
import dataclasses
import io
import numpy as np
from coxstokes import characters, cli, coxeter, spectrum, steinberg
from coxstokes.characters import _freudenthal
from coxstokes.chevalley import build_chevalley
from coxstokes.oracle import _central_factor
from coxstokes.rootcore import build_root_system

assert not __debug__


def fires(name, fn, exc):
    try:
        fn()
    except exc:
        print(name)


a3 = build_root_system("A3")
bip = coxeter.bipartition(a3)
split = [list(row) for row in a3.cartan]
split[1][2] = split[2][1] = 0
split = dataclasses.replace(a3, cartan=tuple(map(tuple, split)))
fires("disconnected", lambda: coxeter.bipartition(split), coxeter.InvariantViolation)
cycle = [list(row) for row in a3.cartan]
cycle[0][2] = cycle[2][0] = -1
cycle = dataclasses.replace(a3, cartan=tuple(map(tuple, cycle)))
fires("odd cycle", lambda: coxeter.bipartition(cycle), coxeter.InvariantViolation)
wrong_s = dataclasses.replace(a3, coxeter_number=5)
fires("gamma^s", lambda: coxeter.coxeter_element(wrong_s, bip), coxeter.TheoremCheckError)
gamma = coxeter.coxeter_element(a3, bip)
fires("orbits", lambda: coxeter._gamma_orbits(wrong_s, gamma), coxeter.TheoremCheckError)
skewed = dataclasses.replace(build_root_system("A2"), simple_lengths=(3, 2))
fires("freudenthal", lambda: _freudenthal(skewed, (3, 0)), cli.InvariantViolation)
fires("central", lambda: _central_factor(np.diag([1.0, 2.0])), cli.ConsistencyError)
fires("schema", lambda: cli._validate("describe", {"schema_version": True}), cli.SchemaViolation)
ep = spectrum.build_e_plus(build_chevalley("A2"))
eigs = np.linalg.eigvals(ep.ad)
eigs[np.argmax(np.abs(eigs))] *= np.exp(1e-6j)
off_ray = dataclasses.replace(ep, ad=np.diag(eigs))
fires("off ray", lambda: spectrum.ad_spectrum(off_ray), spectrum.SpectrumMismatch)
a2 = build_chevalley("A2")
moved = spectrum.build_e_plus(a2).ad.copy()
i = a2.root_index[a2.rs.simple_roots[0]]
moved[0, 0], moved[i, 0] = moved[i, 0], 0.0  # H_1 -> H_1 has degree 0, not 1
fires("grading", lambda: spectrum.graded_singular_values(a2, moved), spectrum.RegularityError)
with contextlib.redirect_stderr(io.StringIO()) as err:
    print("finite", cli.main(["monodromy", "--rank", "2", "--k=0,1,1", "--z", "1e-70"]))
    cap = characters.DEFAULT_DIM_CAP
    characters.DEFAULT_DIM_CAP, characters._freudenthal = 30, None  # omega_2 (21) is under it
    print("cap", cli.main(["stokes", "--type", "A6"]))
    characters.DEFAULT_DIM_CAP, characters._freudenthal = cap, _freudenthal
print(err.getvalue().count("domain error: "))
steinberg.CLASS_TOL = 0.0
steinberg.CHAR_TOL = 0.0
print("stokes", cli.main(["stokes", "--type", "B3", "--m=-1/8,-5/4,-15/8"]))
cli.build_root_system = lambda name: split
print("exit", cli.main(["verify", "--type", "A3"]))
"""


def test_invariant_checks_fire_under_python_O():
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:14] == [
        "disconnected", "odd cycle", "gamma^s", "orbits", "freudenthal", "central", "schema",
        "off ray", "grading", f"finite {EXIT_DOMAIN}", f"cap {EXIT_DOMAIN}", "2",
        f"stokes {EXIT_VERIFY}", f"exit {EXIT_VERIFY}",
    ]


_NO_SCIPY = """
import contextlib, io, sys
from coxstokes import cli

for argv in (
    ["describe", "--type", "E6"],
    ["plane", "--type", "E6"],
    ["verify", "--type", "E6"],
    ["stokes", "--type", "B3", "--m=-1/8,-5/4,-15/8"],
    ["monodromy", "--rank", "2", "--k", "0,1,1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK, argv
print(sorted(m for m in sys.modules if m.partition(".")[0] in ("scipy", "jsonschema")))
"""


def test_cli_commands_never_import_scipy():
    # scipy.optimize alone costs about 0.6 s and 48 MB at import, in every process;
    # jsonschema and its dependencies about 0.1 s and 4 MB
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_IMPORT_BUDGET = """
import contextlib, io, sys
from coxstokes import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("numpy.random.")
                   or m.partition(".")[0] in ("scipy", "jsonschema")))
"""


@pytest.mark.parametrize("argv", [
    ["stokes", "--type", "B3", "--m=-1/8,-5/4,-15/8"],
    ["verify", "--type", "E8"],
    ["monodromy", "--rank", "2", "--k", "0,1,1"],
])
def test_ops_stay_within_their_import_budget(argv):
    # each op in a fresh interpreter: numpy.random and the modules it pulls in
    # cost about 11 ms and 6 MB; the stokes op runs route 1, whose restarts
    # are fixed data
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, *argv], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"{EXIT_OK} []"


_STOKES_POINTS = """
import contextlib, io
from coxstokes import cli

for name, m in (
    ("B3", "-1/8,-5/4,-15/8"),
    ("D4", "-3/2,-11/4,-7/4,-3/2"),
    ("G2", "-9,-5"),
    ("C3", "1,4,9/2"),
    ("D5", "0,0,0,0,0"),
    ("F4", "0,0,0,0"),
    ("E6", "0,0,0,0,0,0"),
):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["stokes", "--type", name, "--m=" + m]) == cli.EXIT_OK, name
    print(buf.getvalue(), end="")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["stokes", "--type", name, "--m=" + m, "--matrices"]) == cli.EXIT_OK, name
    print(buf.getvalue(), end="")
"""


def test_stokes_output_does_not_depend_on_blas_threads():
    # B-D, G2, F4 and E6 points, vertices among them, without and with the dense matrices
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _STOKES_POINTS],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1]


_VERIFY_ALL = """
import sys
from coxstokes import cli
sys.exit(cli.main(["verify", "--all"]))
"""


def test_verify_all_does_not_depend_on_blas_threads():
    # the parity route's B_eo @ B_oe is a BLAS product
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _VERIFY_ALL],
                             capture_output=True, text=True, env=env, timeout=300)
        outs.append((out.returncode, out.stdout))
    assert outs[0] == outs[1]
    assert outs[0][0] == EXIT_OK and '"passed": false' not in outs[0][1]


_CALLS = """
import contextlib, io, json, sys
from coxstokes import cli

out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    out.append([rc, buf.getvalue()])
print(json.dumps(out))
"""


def test_parser_is_reused_without_carrying_state(tmp_path):
    # the parser is built once per process; a call must not see the options of
    # the one before it, so a sequence of calls in one process gives what each
    # call gives as the first in a fresh process
    json_out = str(tmp_path / "s.json")
    calls = [
        ["stokes", "--type", "A2", "--m", "1/3,0", "--bogus"],
        ["stokes", "--type", "A2", "--m", "1/3,0"],
        ["stokes", "--type", "A2", "--m", "0,1/4", "--json-out", json_out],
        ["stokes", "--type", "A2", "--m", "0,1/4"],
        ["monodromy", "--rank", "2", "--k", "0,1,1", "--radius", "0.8"],
        ["monodromy", "--rank", "2", "--k", "0,1,1"],
    ]
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def results(argvs):
        out = subprocess.run([sys.executable, "-c", _CALLS, json.dumps(argvs)],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout)

    together = results(calls)
    assert [rc for rc, _ in together] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
    assert '"radius": 0.8' in together[4][1] and '"radius": 1.0' in together[5][1]
    assert together[2][1] == "" and together[3][1].startswith("{")
    assert together == [results([argv])[0] for argv in calls]
