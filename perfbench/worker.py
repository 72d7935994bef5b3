"""One fresh process of a benchmark run: set-up, then the ops of a workload.

    python3 perfbench/worker.py --workload W --ops OPS.json --out RESULT.json
        [--trace] [--setup-only]

Started by run.py, which points COXSTOKES_CACHE at an empty directory first.
Set-up is timed from before ``import coxstokes`` to the end of the cold
builds.  Then one pass over the ops runs, each op through
``coxstokes.cli.main`` with its standard output captured and checked; the
pass's run_s is the sum of the op latencies.  With --trace each op is a
``bench.op`` span under which the wrapped functions record theirs, and the
spans go into the result file.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import check_op, load_reference  # noqa: E402


def _setup(workload, tracer):
    """Import coxstokes and cold-build the per-type structures the ops reuse.

    The stokes and monodromy ops of one type share the root system, the
    Chevalley algebra, the registered representation and the character
    tables.  Each verify op is the only op of its type, so verify-all builds
    root systems only and each op pays for its own Chevalley algebra.
    """
    import coxstokes.cli  # noqa: F401  (the import is part of set-up)
    import inputs

    if tracer is not None:
        import spans

        spans.install(tracer)
    from coxstokes import characters, chevalley, rootcore, weightrep

    root = tracer.begin("bench.setup") if tracer is not None else None
    for t in inputs.setup_types(workload):
        rs = rootcore.build_root_system(t)
        if workload != "verify-all":
            chevalley.build_chevalley(t)
            weightrep.registered_representation(t)
            characters.all_fundamental_tables(rs)
    if tracer is not None:
        tracer.end(root)


def _run_op(op, refs, tracer):
    """Run one op through the CLI; return its latency, verdict and counters."""
    from coxstokes import cli

    # A CLI invocation starts with an empty heap; collecting here, untimed,
    # keeps garbage left by earlier ops (E8's exact arithmetic) out of this
    # op's latency.
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with warnings.catch_warnings(record=True) as caught:
        if tracer is not None:
            warnings.simplefilter("always", RuntimeWarning)
            tracer.op = op["id"]
            span = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
    ok, why = check_op(op, rc, out.getvalue(), refs) if not error else (False, error)
    rec = {"id": op["id"], "kind": op["kind"], "type": op["type"], "latency": latency,
           "ok": ok, "why": why,
           "warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught)}
    if ok and op["check"] == "monodromy":
        doc = json.loads(out.getvalue())
        rec["nfev"], rec["steps"] = doc["nfev"], doc["steps"]
    return rec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    _setup(args.workload, tracer)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        refs = load_reference()
        with open(args.ops) as fh:
            ops = json.load(fh)
        records = [_run_op(op, refs, tracer) for op in ops]
        result.update(ops=records, run_s=sum(r["latency"] for r in records))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
