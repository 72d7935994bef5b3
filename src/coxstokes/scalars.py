"""Exact linear algebra: Fraction vectors, and integer matrices inverted in Python ints.

Root-system data is pure rational.  The structure constants, which lie in
Q(sqrt d), are integer tables in ``chevalley``.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

Vector = Tuple[Q, ...]


def qvec(xs: Sequence) -> Vector:
    return tuple(Q(x) for x in xs)


def integers(v: Sequence[Q]) -> Tuple[list, int]:
    """Fractions as integer numerators over their least common denominator."""
    den = math.lcm(*(c.denominator for c in v))
    return [c.numerator * (den // c.denominator) for c in v], den


def mat_vec(A: Sequence[Sequence[Q]], v: Sequence[Q]) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def int_inverse(A: Sequence[Sequence[int]]) -> Tuple[List[List[int]], int]:
    """(X, d) with A X = d I for a nonsingular integer matrix A, in Python ints.

    Fraction-free Gauss-Jordan elimination (Bareiss): every entry stays an
    integer minor of [A | I], so each division by the previous pivot is
    exact, and the last pivot d is det A up to sign.  Raises ValueError when
    A is singular.
    """
    n = len(A)
    M = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(A)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[k], M[piv] = M[piv], M[k]
        top, p = M[k], M[k][k]
        for i in range(n):
            if i != k:
                f = M[i][k]
                M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        prev = p
    return [row[n:] for row in M], prev
