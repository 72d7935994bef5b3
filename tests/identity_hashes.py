"""Print one sha256 per group of coxstokes commands, to compare two checkouts byte for byte.

    PYTHONPATH=src python tests/identity_hashes.py

Each group's hash is taken over the JSON list of [argv, exit code, stdout,
stderr] of its commands, each run in this process through
``coxstokes.cli.main``.  The groups:

- bench-stokes: the 22 stokes ops of the stokes-interior and
  stokes-boundary benchmark workloads (read from perfbench/inputs.py);
- vertices: stokes at every alcove vertex of the 14 registered types;
- interior: stokes at 3 seeded interior points of each registered type;
- verify-all: ``verify --all``;
- monodromy: the first 40 ops of the monodromy-typeA workload at seed 1;
- plane: ``plane --type T`` for the 16 standard types;
- rep: ``stokes --rep j`` at m = 0 for the non-registered fundamental
  representations that tests/test_supports.py checks;
- describe: ``describe --type T`` for the 16 standard types, and the
  ``stokes`` refusals at the character cap of the large types in REFUSED,
  which read the root system and the Weyl dimensions only;
- refusals: ``monodromy --rank N --k 0`` for N in MONODROMY_REFUSED, each
  refused at the character cap, and ``verify --type A40``, which skips the
  spectrum above SPEC_DIM_CAP.

Two checkouts that print the same lines give the same bytes on every
command.  Uses the standard library and the package only; pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
from fractions import Fraction as Q
from pathlib import Path

from coxstokes import cli

REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")
INTERIOR_PER_TYPE = 3
MONODROMY_OPS = 40
REP_INDICES = (("A3", 2), ("B3", 2), ("C3", 2), ("D4", 3), ("D4", 4), ("G2", 2))
REFUSED = ("A45", "B25")
MONODROMY_REFUSED = (26, 27, 45)


def _bench_inputs():
    """perfbench/inputs.py, loaded from the file next to this checkout's tests."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("coxstokes_bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stokes_argv(type_name: str, m) -> list:
    return ["stokes", "--type", type_name, "--m=" + ",".join(str(c) for c in m)]


def groups() -> dict:
    """Group name -> the argv of each of its commands, in order."""
    from coxstokes.rootcore import build_root_system

    inputs = _bench_inputs()
    bench = [op["argv"] for w in ("stokes-interior", "stokes-boundary")
             for op in inputs.generate(w, 0)]
    vertices = [_stokes_argv(t, m) for t in REGISTERED for m in inputs.vertices(t)]
    interior = []
    for t in REGISTERED:
        rs = build_root_system(t)
        rng = random.Random(f"identity:{t}")
        for _ in range(INTERIOR_PER_TYPE):
            parts = inputs._composition(rng, rs.rank + 1, inputs.BARY_DENOM)
            bary = [Q(n, inputs.BARY_DENOM) for n in parts]
            interior.append(_stokes_argv(t, inputs._checked_point(rs, bary, ())))
    monodromy = [op["argv"] for op in inputs.generate("monodromy-typeA", 1)[:MONODROMY_OPS]]
    return {
        "bench-stokes": bench,
        "vertices": vertices,
        "interior": interior,
        "verify-all": [["verify", "--all"]],
        "monodromy": monodromy,
        "plane": [["plane", "--type", t] for t in cli.STANDARD_TYPES],
        "rep": [["stokes", "--type", t, "--rep", str(j)] for t, j in REP_INDICES],
        "describe": [["describe", "--type", t] for t in cli.STANDARD_TYPES]
        + [["stokes", "--type", t] for t in REFUSED],
        "refusals": [["monodromy", "--rank", str(n), "--k", "0"] for n in MONODROMY_REFUSED]
        + [["verify", "--type", "A40"]],
    }


def run(argv: list) -> list:
    """[argv, exit code, stdout, stderr] of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [argv, code, out.getvalue(), err.getvalue()]


def main() -> int:
    for name, commands in groups().items():
        records = [run(argv) for argv in commands]
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        print(f"{name:13s} {len(records):3d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
