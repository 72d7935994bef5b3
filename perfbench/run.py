"""The coxstokes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stokes-interior --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (it needs ``src/coxstokes``).  Each
run byte-compiles the sources, draws the workload's ops from the seed, and
starts fresh worker processes, each with its own empty COXSTOKES_CACHE:
several set-up-only processes and one process that sets up and runs the
ops.  The BLAS/OpenMP thread variables are passed on as found.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` one untraced and one traced pass
run, and the result holds the per-layer metrics and the tracing overhead.
The lines before it give every metric with its unit, the environment, and
each failed op.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

T_START = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

MAX_PASSES = 20            # a cap; --seconds decides how many passes run
SETUP_SAMPLES = (3, 5)     # fewest and most set-up measurements in one run
SETUP_BUDGET_S = 4.0       # no set-up-only process starts once this much set-up time is spent
RUN_DEADLINE_S = 170       # a run that is not done by then fails without a result
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
)
# Per-type self time of the solver is reported for every type a workload solves.
SOLVE_TYPES = sorted({
    t for w in ("stokes-interior", "stokes-boundary", "monodromy-typeA")
    for t in inputs.setup_types(w)
})


class BenchError(RuntimeError):
    pass


# -- environment --------------------------------------------------------------


def _git_commit() -> str:
    # the ceiling keeps git from reporting a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": _git_commit(),
    }


# -- workers -------------------------------------------------------------------


def _worker(tmp: str, workload: str, ops_path: str, tag: str, *flags: str) -> dict:
    """Start one fresh worker with an empty character cache; return its result."""
    cache = tempfile.mkdtemp(prefix=f"cache-{tag}-", dir=tmp)
    out = os.path.join(tmp, f"{tag}.json")
    env = dict(os.environ)
    env["COXSTOKES_CACHE"] = cache
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--ops", ops_path, "--out", out, *flags]
    left = RUN_DEADLINE_S - (time.monotonic() - T_START)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} did not finish within the run's {RUN_DEADLINE_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def _summary(results) -> dict:
    records = [r for res in results for r in res["ops"]]
    lat = [r["latency"] for r in records]
    return {
        "run_s": statistics.median(res["run_s"] for res in results),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10)[-1] if len(lat) >= 100 else None,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "records": records,
    }


# -- per-layer metrics from the spans ----------------------------------------------


def layer_metrics(res: dict) -> dict:
    """Self seconds and calls per public function, over set-up and the pass."""
    rows = res["trace"]["spans"]
    self_s = spans.self_times(rows)
    out = {}
    for mod, fns in spans.TIMED.items():
        for fn in fns:
            out[f"{mod}.{fn}_s"] = 0.0
            out[f"{mod}.{fn}_calls"] = 0
    for t in SOLVE_TYPES:
        out[f"steinberg.stokes_from_asymptotics_s.{t}"] = 0.0
    type_of = {r["id"]: r["type"] for r in res["ops"]}
    for (name, _, _, _, op), self_time in zip(rows, self_s):
        if name.startswith("bench."):
            continue
        out[f"{name}_s"] += self_time
        out[f"{name}_calls"] += 1
        key = f"{name}_s.{type_of.get(op)}"
        if key in out:
            out[key] += self_time
    out["steinberg.steinberg_section_calls"] = res["trace"]["counts"].get(
        "steinberg.steinberg_section", 0)
    out["steinberg.runtime_warnings"] = sum(r["warnings"] for r in res["ops"])
    out["oracle.nfev"] = sum(r.get("nfev", 0) for r in res["ops"])
    out["oracle.steps"] = sum(r.get("steps", 0) for r in res["ops"])
    # every span of the pass lies under a bench.op span, so this sum is
    # the pass's wall time if self times are computed right
    out["trace.span_self_sum_s"] = sum(
        t for (_, _, _, _, op), t in zip(rows, self_s) if op is not None)
    return out


def _unit(name: str) -> str:
    if name == "failed_frac":
        return "fraction"
    return "s" if name.endswith("_s") or "_s." in name else "count"


# -- one run --------------------------------------------------------------------


def _write_ops(tmp: str, workload: str, seed: int, pass_index: int) -> str:
    path = os.path.join(tmp, f"ops{pass_index}.json")
    with open(path, "w") as fh:
        json.dump(inputs.generate(workload, seed, pass_index), fh)
    return path


def run(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    print(f"workload {workload}: {inputs.WORKLOADS[workload]}")
    ops0 = _write_ops(tmp, workload, seed, 0)
    if trace:
        plain = _worker(tmp, workload, ops0, "untraced")
        traced = _worker(tmp, workload, ops0, "traced", "--trace")
        spans_path = os.path.join(ROOT, ".perfbench_runs", f"spans-{workload}-{seed}.json")
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        with open(spans_path, "w") as fh:
            json.dump(traced["trace"], fh)
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        summ = _summary([traced])
        metrics = layer_metrics(traced)
        metrics["trace.run_s"] = traced["run_s"]
        metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        metrics["failed_frac"] = summ["failed"] / summ["attempted"]
        units = {k: _unit(k) for k in metrics}
    else:
        # Passes, each in a fresh process, until `seconds` of op time have
        # run; then set-up-only processes for more set-up samples.
        passes = [_worker(tmp, workload, ops0, "pass0")]
        while sum(p["run_s"] for p in passes) < seconds and len(passes) < MAX_PASSES:
            path = _write_ops(tmp, workload, seed, len(passes))
            passes.append(_worker(tmp, workload, path, f"pass{len(passes)}"))
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES[0] or (
            len(setup) < SETUP_SAMPLES[1] and sum(setup) < SETUP_BUDGET_S
        ):
            setup.append(_worker(tmp, workload, ops0, f"setup{len(setup)}",
                                 "--setup-only")["setup_s"])
        summ = _summary(passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": summ["run_s"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
        # Printed, not in the JSON result: see README.md, end-to-end metrics.
        print(f"passes: {len(passes)}; ops: {summ['attempted']}; set-up samples: {len(setup)}")
        print(f"failed_frac = {summ['failed'] / summ['attempted']:.6g} fraction")
        print(f"op_p50_s = {summ['op_p50_s']:.6g} s")
        if summ["op_p90_s"] is not None:
            print(f"op_p90_s = {summ['op_p90_s']:.6g} s (over {summ['attempted']} ops)")
        else:
            print(f"op_p90_s: not reported, {summ['attempted']} ops < 100")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for r in summ["records"]:
        if not r["ok"]:
            print(f"FAILED op {r['id']} ({r['type']} {r['kind']}): {r['why']}")
    return {
        "correct": summ["failed"] == 0,
        "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "coxstokes", "__init__.py")):
        print(f"error: no coxstokes sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if not compileall.compile_dir(SRC, quiet=1) or not compileall.compile_dir(HERE, quiet=1):
        print("error: byte-compiling the sources failed", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(), sort_keys=True))
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
