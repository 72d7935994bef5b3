"""Exact rational linear algebra on Fraction vectors and matrices.

Root-system data is pure rational.  The structure constants, which lie in
Q(sqrt d), are integer tables in ``chevalley``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = List[List[Q]]


def qvec(xs: Sequence) -> Vector:
    return tuple(Q(x) for x in xs)


def integers(v: Sequence[Q]) -> Tuple[list, int]:
    """Fractions as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in v))
    return [c.numerator * (den // c.denominator) for c in v], den


def mat_vec(A: Sequence[Sequence[Q]], v: Sequence[Q]) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def mat_inv(A: Sequence[Sequence[Q]]) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(A)
    M = [[Q(A[i][j]) for j in range(n)] + [Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        if M[i][i] == 0:
            for k in range(i + 1, n):
                if M[k][i] != 0:
                    M[i], M[k] = M[k], M[i]
                    break
        piv = M[i][i]
        if piv == 0:
            raise ValueError("singular matrix")
        M[i] = [x / piv for x in M[i]]
        for k in range(n):
            if k != i and M[k][i] != 0:
                f = M[k][i]
                M[k] = [M[k][j] - f * M[i][j] for j in range(2 * n)]
    return [row[n:] for row in M]
