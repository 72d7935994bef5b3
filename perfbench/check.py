"""Per-op correctness gate.

An op fails if it raises, exits non-zero, or its JSON output misses one of
the checks below.  Tolerances, not bit equality: results move in the last
digits with the BLAS thread count.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

CLASS_RESIDUAL_TOL = 1e-8      # registered-representation class residual
# |t - t_ref| <= T_TOL[kind] * max(1, |t_ref|_inf).  Interior points are
# well conditioned; at the alcove boundary the target spectrum is defective
# and t is only pinned to about eps^(1/k) (README.md gives the evidence).
T_TOL = {"interior": 1e-6, "vertex": 1e-3}


def load_reference(path: str = REFERENCE_PATH) -> Dict[str, dict]:
    with open(path) as fh:
        return json.load(fh)


def _max_abs_diff(t, ref) -> Tuple[float, float]:
    diff = max(abs(complex(*a) - complex(*b)) for a, b in zip(t, ref))
    scale = max([1.0] + [abs(complex(*b)) for b in ref])
    return diff, scale


def check_op(op: dict, rc, stdout: str, refs: Dict[str, dict]) -> Tuple[bool, str]:
    """(passed, reason) for one op's exit code and standard output."""
    if rc != 0:
        return False, f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False, "output is not JSON"
    kind = op["check"]
    if kind in ("verify", "monodromy"):
        return (True, "") if doc.get("passed") is True else (False, "passed is not true")
    if kind != "stokes":
        return False, f"unknown check {kind}"
    from coxstokes.steinberg import FACTOR_TOL  # log K1 / log K2 off their root-space span

    if not doc["class_residual"] <= CLASS_RESIDUAL_TOL:
        return False, f"class_residual {doc['class_residual']:.3g}"
    if not doc["spectrum_check"]["ok"]:
        return False, "spectrum_check not ok"
    for name, res in doc["support_residuals"].items():
        if not res <= FACTOR_TOL:
            return False, f"support residual {name} {res:.3g}"
    ref = refs.get(op["ref"])
    if ref is None or ref.get("t") is None:
        return False, f"no reference t for {op['ref']}"
    if len(doc["t"]) != len(ref["t"]):
        return False, "t has the wrong length"
    diff, scale = _max_abs_diff(doc["t"], ref["t"])
    if not diff <= T_TOL[op["kind"]] * scale:
        return False, f"t off reference by {diff:.3g}"
    return True, ""
