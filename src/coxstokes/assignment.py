"""Linear sum assignment on square cost matrices.

``linear_assignment(cost)`` returns ``(rows, cols)`` of a least-sum
assignment, as ``scipy.optimize.linear_sum_assignment`` does on a square
matrix without NaN or -inf entries.  Where several assignments tie, it may
choose another one than scipy; the optimal sum is the same.

A certificate settles the common case at once: when every row has a strict
finite minimum and no two rows share its column, the row argmins are the
unique optimum.  Otherwise each row in turn gets one Dijkstra search of the
shortest augmenting path method (Crouse, "On implementing 2D rectangular
assignment algorithms", IEEE TAES 52 (2016)).
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
    n = len(c)
    rows = np.arange(n)
    if n == 0:
        return rows, rows.copy()
    best = c.argmin(axis=1)
    low = c[rows, best][:, None]
    if np.isfinite(low).all() and ((c == low).sum(axis=1) == 1).all() and len(set(best)) == n:
        return rows, best

    u, v = np.zeros(n), np.zeros(n)
    col4row, row4col = np.full(n, -1, dtype=np.intp), np.full(n, -1, dtype=np.intp)
    for cur in range(n):
        spc, path = np.full(n, np.inf), np.full(n, -1)   # shortest path to each column
        scanned = np.zeros(n, dtype=bool)
        i, min_val, reached = cur, 0.0, []
        while True:
            reached.append(i)
            r = min_val + c[i] - u[i] - v
            better = ~scanned & (r < spc)
            path[better] = i
            spc[better] = r[better]
            todo = np.where(scanned, np.inf, spc)
            j = int(np.lexsort((row4col >= 0, todo))[0])   # on a tie, a free column
            min_val = todo[j]
            if min_val == np.inf:
                raise ValueError("cost matrix is infeasible")
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        # dual update, then augment along the path back to row cur
        u[cur] += min_val
        others = np.array(reached[1:], dtype=np.intp)
        u[others] += min_val - spc[col4row[others]]
        v[scanned] -= min_val - spc[scanned]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return rows, col4row
