"""Exact linear sum assignment on square cost matrices.

``linear_assignment(cost)`` returns the same ``(rows, cols)`` as
``scipy.optimize.linear_sum_assignment`` on a square matrix without NaN or
-inf entries, tie-breaks included.  The spectral checks match multisets of
eigenvalues whose cost matrices often have bit-identical rows, so several
assignments tie; the kappa polish of ``spectrum.match_plane`` then sums over
the chosen assignment, and a different tie-break moves kappa in its last bits.

The method is scipy's shortest augmenting path (Crouse, "On implementing 2D
rectangular assignment algorithms", IEEE TAES 52 (2016)) with its evaluation
order kept: rows in order, each search scanning the columns left in
``remaining`` (filled n-1, ..., 0 and shrunk by swap-remove), a free column
preferred on an equal minimum, reduced costs ``minVal + c - u[i] - v[j]``
evaluated left to right, and the dual variables updated as scipy does.  The
scan over the remaining columns is vectorised; every element sees the same
IEEE operations as in scipy's scalar loop.  A certificate skips the searches
whose outcome is known: when every row has a strict minimum and no two rows
share its column, the row argmins are the unique optimum.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def linear_assignment(cost) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of a least-sum assignment of a square cost matrix."""
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"expected a square cost matrix, got shape {c.shape}")
    if np.isnan(c).any() or np.isneginf(c).any():
        raise ValueError("matrix contains invalid numeric entries")
    return np.arange(len(c)), _shortest_augmenting_paths(c)


def _shortest_augmenting_paths(c: np.ndarray) -> np.ndarray:
    """scipy's rectangular_lsap loop on a square matrix; cols indexed by row.

    ``todo`` holds scipy's shortest path costs of the columns a search has
    not scanned yet, and inf at the scanned ones, which ``unscanned`` keeps
    from improving.  The order of scipy's ``remaining`` array decides only
    between equal minima, and is rebuilt from the scanned columns then.
    """
    n = len(c)
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    # minVal + c - u[i] of a search's first step: minVal and u[i] are 0 until
    # row i is assigned
    first = (0.0 + c) - 0.0
    best = first.argmin(axis=1)
    low = first[np.arange(n), best]
    strict = np.isfinite(low)
    if n > 1:
        strict &= low < np.partition(first, 1, axis=1)[:, 1]
    if strict.all() and np.bincount(best, minlength=n).max() <= 1:
        return best
    # The certificate row by row.  The duals move only scanned columns, which
    # the search leaves assigned, so v = 0 at every free column.  While v <= 0
    # everywhere (rounding can push an entry above 0), a strict row minimum
    # at a free column stays the strict minimum of the first step: the search
    # ends there and leaves v as it is.
    best, low, strict = best.tolist(), low.tolist(), strict.tolist()

    u = [0.0] * n
    v = np.zeros(n)
    col4row = [-1] * n
    row4col = [-1] * n
    path = np.empty(n, dtype=np.intp)
    spc = [0.0] * n                   # shortest path cost of each scanned column
    todo = np.empty(n)
    r = np.empty(n)
    better = np.empty(n, dtype=bool)
    unscanned = np.empty(n, dtype=bool)
    v_nonpos = True
    for cur in range(n):
        j = best[cur]
        if strict[cur] and row4col[j] < 0 and v_nonpos:
            u[cur] += low[cur]
            row4col[j] = cur
            col4row[cur] = j
            continue

        # one Dijkstra search from row cur to a free column
        i = cur
        min_val = 0.0
        unscanned.fill(True)
        reached, scanned = [], []
        sink = -1
        while sink < 0:
            reached.append(i)
            if scanned:
                np.add(min_val, c[i], out=r)
                r -= u[i]
                r -= v
                np.less(r, todo, out=better)
                better &= unscanned
                path[better] = i
                np.copyto(todo, r, where=better)
            else:
                # every cost starts at inf, and only an inf entry keeps it
                np.subtract(first[i], v, out=todo)
                path.fill(i)
            j = int(todo.argmin())
            lowest = todo[j]
            if lowest == np.inf:
                raise ValueError("cost matrix is infeasible")
            ties = (todo == lowest).nonzero()[0].tolist()
            if len(ties) > 1:
                j = _scan_winner(n, ties, scanned, row4col)
            min_val = spc[j] = float(todo[j])
            todo[j] = np.inf
            unscanned[j] = False
            scanned.append(j)
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]

        # dual update; a one-step search leaves v as it is, since its only
        # column has spc = min_val
        u[cur] += min_val
        if len(scanned) > 1:
            for k in reached[1:]:
                u[k] += min_val - spc[col4row[k]]
            for k in scanned:
                v[k] -= min_val - spc[k]
                v_nonpos = v_nonpos and v[k] <= 0

        # augment along the path back to row cur
        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return np.array(col4row, dtype=np.intp)


def _scan_winner(n: int, ties: list, scanned: list, row4col: list) -> int:
    """The column scipy's scan picks among equal minima.

    Its scan over ``remaining`` keeps the first minimum unless a later equal
    one is a free column: the last free minimum wins, else the first minimum.
    """
    remaining = list(range(n - 1, -1, -1))
    pos = list(remaining)             # pos[j]: index of column j in remaining
    for j in scanned:                 # scipy's swap-removes, replayed
        last = remaining.pop()
        if last != j:
            remaining[pos[j]] = last
            pos[last] = pos[j]
    free = [t for t in ties if row4col[t] < 0]
    if free:
        return max(free, key=pos.__getitem__)
    return min(ties, key=pos.__getitem__)
