import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxstokes
from coxstokes import cli, oracle
from coxstokes.chevalley import InvariantViolation
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


def test_verify_spectrum_skipped_by_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SPEC_DIM_CAP", 5)
    out = tmp_path / "v.json"
    assert run(["verify", "--type", "B3", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(c["name"] != "apposition_spectrum" for c in doc["checks"])


def test_stokes_roundtrip(tmp_path):
    out = tmp_path / "s.json"
    assert run(["stokes", "--type", "A2", "--m", "0,0", "--json-out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["spectrum_check"]["ok"]
    assert doc["k1_support"] == [[0, 1]]
    assert max(abs(re) + abs(im) for re, im in doc["t"]) < 1e-10


def test_stokes_inadmissible(tmp_path):
    out = tmp_path / "s.json"
    assert run(["stokes", "--type", "A2", "--m=-5,0", "--json-out", str(out)]) == EXIT_DOMAIN
    doc = json.loads(out.read_text())
    assert doc["alcove"]["admissible"] is False


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


def test_monodromy_domain_error():
    assert run(["monodromy", "--rank", "2", "--k", "0,1,2"]) == EXIT_DOMAIN


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
import dataclasses
from fractions import Fraction as Q
import numpy as np
from coxstokes import cli, coxeter, steinberg
from coxstokes.characters import _Lattice, _freudenthal
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
lat = _Lattice(build_root_system("A2"))
lat.W[0][0] += Q(1, 7)
fires("freudenthal", lambda: _freudenthal(lat, (1, 1)), cli.InvariantViolation)
fires("central", lambda: _central_factor(np.diag([1.0, 2.0])), cli.ConsistencyError)
fires("schema", lambda: cli._validate("describe", {"schema_version": True}), cli.SchemaViolation)
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
    assert out.stdout.split("\n")[:9] == [
        "disconnected", "odd cycle", "gamma^s", "orbits", "freudenthal", "central", "schema",
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
"""


def test_stokes_output_does_not_depend_on_blas_threads():
    # B-D, G2, F4 and E6 points, vertices among them
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _STOKES_POINTS],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1]


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
