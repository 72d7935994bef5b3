"""Record the reference section parameters t for every pooled stokes point.

    python3 perfbench/make_reference.py [--out perfbench/reference.json]

Runs ``coxstokes stokes`` on each fixed point of the stokes workloads and
stores t with the residuals it came with.  Timings go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import inputs  # noqa: E402


def pooled_ops():
    return [
        inputs._stokes_op(t, m, kind)
        for workload in ("stokes-interior", "stokes-boundary")
        for t, m, kind in inputs.stokes_points(workload)
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()
    tmp_root = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    os.environ["COXSTOKES_CACHE"] = tempfile.mkdtemp(prefix="reference-cache-", dir=tmp_root)
    from coxstokes import cli

    refs = {}
    for op in pooled_ops():
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op["argv"])
        dt = time.perf_counter() - t0
        doc = json.loads(buf.getvalue()) if buf.getvalue() else {}
        entry = {
            "kind": op["kind"],
            "exit": rc,
            "t": doc.get("t"),
            "class_residual": doc.get("class_residual"),
            "adjoint_class_residual": doc.get("adjoint_class_residual"),
        }
        refs[op["ref"]] = entry
        print(f"{op['ref']:60s} {op['kind']:9s} rc={rc} {dt:7.3f}s "
              f"res={entry['class_residual']} cert={entry['adjoint_class_residual']}",
              file=sys.stderr, flush=True)
    with open(args.out, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
