"""Self-test of the per-op correctness gate.

    python3 perfbench/selftest.py

Runs a real ``stokes`` op through the worker's op runner, whose records
run.py counts into ``failed``, once against the stored reference and once
against a reference with t perturbed, and shows that only the second is
counted as failed.  Then feeds the gate a residual over its tolerance, a
non-zero exit code, and a monodromy output with ``passed`` false.  Exits 0
when every case is judged as expected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import check  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402


def _run(op):
    from coxstokes import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(op["argv"])
    return rc, out.getvalue()


def main() -> int:
    refs = check.load_reference()
    stokes = next(op for op in inputs.generate("stokes-interior", 0) if op["type"] == "G2")
    mono = inputs.generate("monodromy-typeA", 0)[0]
    rc, out = _run(stokes)
    mrc, mout = _run(mono)
    stored = worker._run_op(stokes, refs, None)

    perturbed = copy.deepcopy(refs)
    t_ref = perturbed[stokes["ref"]]["t"]
    t_ref[0][0] += 10 * check.T_TOL[stokes["kind"]] * max([1.0] + [abs(complex(*z)) for z in t_ref])
    doc = json.loads(out)
    high_residual = json.dumps(dict(doc, class_residual=10 * check.CLASS_RESIDUAL_TOL))
    mdoc = json.loads(mout)
    not_passed = json.dumps(dict(mdoc, passed=False))

    moved = worker._run_op(stokes, perturbed, None)
    cases = [
        ("stokes op against the stored reference", (stored["ok"], stored["why"]), True),
        ("stokes op against a perturbed reference", (moved["ok"], moved["why"]), False),
        ("stokes with class_residual over tolerance",
         check.check_op(stokes, rc, high_residual, refs), False),
        ("stokes with exit code 3", check.check_op(stokes, 3, out, refs), False),
        ("monodromy as run", check.check_op(mono, mrc, mout, refs), True),
        ("monodromy with passed = false", check.check_op(mono, mrc, not_passed, refs), False),
    ]
    ok = True
    for name, (passed, why), want in cases:
        good = passed == want
        ok = ok and good
        verdict = "pass" if passed else f"fail ({why})"
        print(f"[{'ok' if good else 'WRONG'}] {name}: {verdict}")
    print("selftest " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
