"""Spans around the public functions of each coxstokes module.

The tracer lives in the benchmark, not in the package: ``install`` replaces
each listed function by a wrapper in the module that defines it and in every
``coxstokes`` module that imported it by name, so calls through either name
are recorded.  Spans are kept in memory as (name, start, end, parent, op) and
written out by the worker when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Dict, List

# Public functions that get a timed span, by defining module.
TIMED = {
    "rootcore": ("build_root_system",),
    "chevalley": ("build_chevalley",),
    "characters": ("fundamental_characters",),
    "weightrep": ("registered_representation", "fundamental_representation"),
    "coxeter": ("coxeter_plane", "singular_directions", "kostant_chain"),
    "spectrum": ("build_e_plus", "ad_spectrum", "match_plane"),
    "steinberg": (
        "alcove_map",
        "stokes_from_asymptotics",
        "verify_factor_supports",
        "semisimple_spectrum_check",
    ),
    "oracle": ("build_system", "formal_solution", "integrate_monodromy", "numerical_monodromy"),
    "cli": ("main",),
}
# Called inside solver loops: counted, not timed.
COUNTED = {"steinberg": ("steinberg_section",)}


class Tracer:
    """In-memory span recorder; one per traced process.

    Each span is a row [name, start, end, parent index or -1, op id or None].
    """

    def __init__(self):
        self.rows: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.rows[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.rows[idx][0]} closed out of order")

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.rows, "counts": dict(self.counts)}


def self_times(rows) -> List[float]:
    """Self time of each dumped span: its duration minus its children's."""
    out = [end - start for _, start, end, _, _ in rows]
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            out[parent] -= end - start
    return out


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a coxstokes module holds it by name.

    That includes the package's own re-exports and imported aliases such as
    ``cli.stokes_from_asymptotics`` and ``oracle.stokes_from_asymptotics``.
    """
    import importlib

    importlib.import_module("coxstokes.cli")  # pulls in every module it uses
    modules = {
        name.partition(".")[2] or "coxstokes": mod
        for name, mod in sys.modules.items()
        if name.partition(".")[0] == "coxstokes" and mod is not None
    }
    for table, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for mod_name, fns in table.items():
            for fn_name in fns:
                original = getattr(modules[mod_name], fn_name)
                wrapper = make(f"{mod_name}.{fn_name}", original)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)
