"""Exact rational references that the package no longer carries.

- ``mat_inv``: the inverse of a rational matrix by Gauss-Jordan elimination
  over Fractions;
- ``fraction_root_system``: the root system with its Gram matrix, Cartan
  check and Gram inverse formed in Fractions, and its roots closed under
  the full simple-reflection matrices, as ``build_root_system`` did before
  it moved to Python ints.  tests/test_rootcore.py compares the two field
  by field, in value and in type.

No module of the package imports this one.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import List, Sequence

import numpy as np

from coxstokes.rootcore import (
    InvariantViolation,
    RootSystem,
    _exponents_from_angles,
    _root_key,
    _simple_root_vectors,
    capped_type,
    reflection_matrices,
)
from coxstokes.scalars import mat_vec


def mat_inv(A: Sequence[Sequence[Q]]) -> List[List[Q]]:
    """Exact inverse by Gauss-Jordan elimination over Fractions."""
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


def reflection_closure(cartan, l: int):
    """All roots, sorted canonically: the simple roots closed under every
    simple reflection, each applied as a full matrix."""
    R = reflection_matrices(cartan)
    simples = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    seen = set(simples)
    frontier = simples
    while frontier:
        images = R @ np.array(frontier, dtype=np.int64).T  # images[j][:, k]: R_j of root k
        frontier = []
        for s in map(tuple, images.transpose(0, 2, 1).reshape(-1, l).tolist()):
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return sorted(seen, key=_root_key)


def fraction_root_system(type_name) -> RootSystem:
    """The root system of one type, its rational data formed in Fractions."""
    t = capped_type(type_name)
    l = t.rank
    vecs = _simple_root_vectors(t)

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    gram_euc = [[dot(vecs[i], vecs[j]) for j in range(l)] for i in range(l)]
    cartan = [[int(2 * gram_euc[i][j] / gram_euc[j][j]) for j in range(l)] for i in range(l)]
    for i in range(l):
        for j in range(l):
            if Q(2) * gram_euc[i][j] / gram_euc[j][j] != cartan[i][j]:
                raise InvariantViolation(f"non-integral Cartan entry at ({i}, {j})")

    roots = reflection_closure(cartan, l)
    positives = [r for r in roots if sum(r) > 0]
    psi = max(positives, key=_root_key)
    psi_len = sum(psi[i] * gram_euc[i][j] * psi[j] for i in range(l) for j in range(l))
    scale = Q(2) / psi_len
    form = tuple(tuple(scale * gram_euc[i][j] for j in range(l)) for i in range(l))
    s = 1 + sum(psi)

    ginv = mat_inv(form)
    length_den = math.lcm(*(form[j][j].denominator for j in range(l)))
    return RootSystem(
        type=t,
        cartan=tuple(tuple(row) for row in cartan),
        form=form,
        simple_roots=tuple(tuple(int(i == j) for j in range(l)) for i in range(l)),
        roots=tuple(roots),
        positive_roots=tuple(positives),
        psi=psi,
        marks=(1,) + tuple(psi),
        coxeter_number=s,
        exponents=_exponents_from_angles(cartan, l, s),
        r_coeffs=tuple(mat_vec(ginv, [Q(1)] * l)),
        epsilon_basis=tuple(tuple(ginv[i][j] for i in range(l)) for j in range(l)),
        cartan_inv=tuple(
            tuple(form[i][i] / 2 * ginv[i][j] for j in range(l)) for i in range(l)
        ),
        simple_lengths=tuple(int(form[j][j] * length_den) for j in range(l)),
        length_den=length_den,
        _root_set=frozenset(roots),
    )
