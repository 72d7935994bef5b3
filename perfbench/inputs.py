"""Inputs of the four benchmark workloads.

Every op is one ``coxstokes`` command line plus the check its output must
pass.  The ``stokes`` points are fixed: interior points drawn once from
POOL_SEED, and alcove vertices.  Their reference section parameters ``t``
are stored in reference.json.  One solve costs 0.2 to 8 s depending on the
point, so a seed-chosen subset would make run_s measure the draw more than
the code.  The monodromy systems are drawn from the run's seed.  Each point
is checked with ``alcove_map`` (each system with ``build_system``) before it
is used; a point that does not pass raises, it is never swapped for another.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

# Why each workload exists; run.py prints this, README.md explains it.
WORKLOADS: Dict[str, str] = {
    "stokes-interior": "the steinberg solver's power-sum path at interior alcove points"
    " of B3, C3, G2, D4 and B4 (adjoint matrices up to 36x36)",
    "stokes-boundary": "alcove vertices of B3, C3, G2 and vertex 0 of D4: the same solver"
    " on its continuation and eigen-rescue fallbacks",
    "verify-all": "theorem checks for the 16 standard types (exact Chevalley build and"
    " Jacobi, plane, spectrum); never enters the steinberg solver",
    "monodromy-typeA": "many short type-A oracle runs on sl3..sl6: ODE right-hand"
    " sides, CLI parsing and schema validation per op",
}

INTERIOR_TYPES = ("B3", "C3", "G2", "D4", "B4")
ALL_VERTEX_TYPES = ("B3", "C3", "G2")
VERTEX0_TYPES = ("D4",)

# The interior points are drawn from this fixed seed, not from the run's.
POOL_SEED = 1802_01126
INTERIOR_POINTS = 2        # interior points per type
BARY_DENOM = 24            # barycentric coordinates are multiples of 1/24
MONODROMY_OPS = 100        # monodromy systems in one pass


# -- alcove geometry ------------------------------------------------------------


def _m_from_bary(rs, bary: Sequence[Q]) -> Tuple[Q, ...]:
    """m for the point y = sum_k bary_k v_k of the alcove with vertices v_k.

    alpha_i(y) = bary_i / q_i for i >= 1 and 1 - psi(y) = bary_0, so
    alpha_i(m) = s * bary_i / q_i - 1 and m = sum_j alpha_j(m) eps_j.
    """
    s = rs.coxeter_number
    alpha_m = [s * bary[i] / rs.marks[i] - 1 for i in range(1, rs.rank + 1)]
    return tuple(
        sum(alpha_m[j] * rs.epsilon_basis[i][j] for j in range(rs.rank))
        for i in range(rs.rank)
    )


def _slacks(rs, m) -> Tuple[Q, ...]:
    """(1 - psi(y), alpha_1(y), .., alpha_l(y)) from alcove_map."""
    from coxstokes.steinberg import alcove_map

    pt = alcove_map(rs, m)
    return (pt.slack_psi,) + tuple(pt.slacks_simple)


def _checked_point(rs, bary: Sequence[Q], zero_at: Sequence[int]) -> Tuple[Q, ...]:
    """m at the barycentric point; its slacks must vanish exactly at zero_at."""
    m = _m_from_bary(rs, bary)
    sl = _slacks(rs, m)
    zeros = tuple(k for k, v in enumerate(sl) if v == 0)
    if tuple(sorted(zero_at)) != zeros or any(v < 0 for v in sl):
        raise ValueError(f"{rs.type}: point {bary} has slacks {sl}, want zeros at {zero_at}")
    return m


def _composition(rng: random.Random, parts: int, total: int) -> List[int]:
    """A uniform composition of total into parts positive integers."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _pool_rng(*key) -> random.Random:
    return random.Random(f"{POOL_SEED}:" + ":".join(map(str, key)))


def interior_pool(type_name: str) -> List[Tuple[Q, ...]]:
    from coxstokes.rootcore import build_root_system

    rs = build_root_system(type_name)
    rng = _pool_rng("interior", type_name)
    out = []
    for _ in range(INTERIOR_POINTS):
        bary = [Q(n, BARY_DENOM) for n in _composition(rng, rs.rank + 1, BARY_DENOM)]
        out.append(_checked_point(rs, bary, ()))
    return out


def vertices(type_name: str) -> List[Tuple[Q, ...]]:
    from coxstokes.rootcore import build_root_system

    rs = build_root_system(type_name)
    n = rs.rank + 1
    return [
        _checked_point(rs, [Q(int(k == j)) for k in range(n)], [k for k in range(n) if k != j])
        for j in range(n)
    ]


# -- ops --------------------------------------------------------------------------


def _stokes_op(type_name: str, m, kind: str) -> dict:
    m_text = ",".join(str(c) for c in m)
    return {"argv": ["stokes", "--type", type_name, "--m=" + m_text], "check": "stokes",
            "ref": f"{type_name}|{m_text}", "kind": kind, "type": type_name}


def _monodromy_system(rng: random.Random, n: int) -> dict:
    """A seeded sl_{n+1} system that satisfies build_system's constraints."""
    from coxstokes.oracle import build_system

    # nu-symmetric: k_i = k_{n+1-i} for i = 1..n, k_0 free
    free = [Q(rng.randint(-2, 4), 4) for _ in range((n + 1) // 2 + 1)]
    k = [free[0]] + [free[min(i, n + 1 - i)] for i in range(1, n + 1)]
    c = [round(rng.uniform(0.5, 2.0), 3) for _ in range(n + 1)]
    z = round(rng.uniform(0.5, 2.0), 3)
    # the loop radii the package's own oracle tests and demo use
    radius = round(rng.uniform(0.7, 1.3), 3)
    build_system(n, c, k, z)  # raises SystemError_ on a bad draw
    argv = [
        "monodromy", "--rank", str(n),
        "--k=" + ",".join(str(x) for x in k),
        "--c=" + ",".join(str(x) for x in c),
        "--z", str(z), "--radius", str(radius),
    ]
    return {"argv": argv, "check": "monodromy", "kind": f"sl{n + 1}", "type": f"A{n}"}


def stokes_points(workload: str) -> List[Tuple[str, Tuple[Q, ...], str]]:
    """The fixed (type, m, kind) points of a stokes workload."""
    if workload == "stokes-interior":
        return [(t, m, "interior") for t in INTERIOR_TYPES for m in interior_pool(t)]
    if workload == "stokes-boundary":
        pts = [(t, m, "vertex") for t in ALL_VERTEX_TYPES for m in vertices(t)]
        return pts + [(t, vertices(t)[0], "vertex") for t in VERTEX0_TYPES]
    raise KeyError(workload)


def generate(workload: str, seed: int, pass_index: int = 0) -> List[dict]:
    """The ops of one pass of the workload, the same for the same seed and pass.

    Only the monodromy systems depend on the seed; the other workloads run
    fixed ops in a fixed order.
    """
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload.startswith("stokes-"):
        ops = [_stokes_op(t, m, kind) for t, m, kind in stokes_points(workload)]
    elif workload == "verify-all":
        from coxstokes.cli import STANDARD_TYPES

        # the order of `verify --all`
        ops = [{"argv": ["verify", "--type", t], "check": "verify", "kind": "verify", "type": t}
               for t in STANDARD_TYPES]
    elif workload == "monodromy-typeA":
        # equal numbers of sl3..sl6, since the cost of an op grows with n
        ops = [_monodromy_system(rng, 2 + i % 4) for i in range(MONODROMY_OPS)]
    else:
        raise KeyError(workload)
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def setup_types(workload: str) -> Tuple[str, ...]:
    """The types whose per-type structures the workload's ops reuse."""
    if workload == "verify-all":
        from coxstokes.cli import STANDARD_TYPES

        return STANDARD_TYPES
    return {
        "stokes-interior": INTERIOR_TYPES,
        "stokes-boundary": ALL_VERTEX_TYPES + VERTEX0_TYPES,
        "monodromy-typeA": ("A2", "A3", "A4", "A5"),
    }[workload]
