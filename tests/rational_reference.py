"""Exact rational references that the package no longer carries.

- ``mat_inv``: the inverse of a rational matrix by Gauss-Jordan elimination
  over Fractions;
- ``fraction_root_system``: the root system with its Gram matrix, Cartan
  check and Gram inverse formed in Fractions, and its roots closed under
  the full simple-reflection matrices, as ``build_root_system`` did before
  it moved to Python ints.  tests/test_rootcore.py compares the two field
  by field, in value and in type;
- ``word_representation``: V(lambda) on lowering words, its contravariant
  (Shapovalov) form found by a memoized recursion on the words
  (``VermaWords``), as ``weightrep._build_representation`` did before it
  read each level off the one above.  tests/test_weightrep.py compares the
  two entry for entry, in value and in type.

No module of the package imports this one.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Dict, List, Sequence, Tuple

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
from coxstokes.weightrep import Representation, _solve_gram, _verify_representation

Word = Tuple[int, ...]  # f_{i1} f_{i2} ... applied to the highest vector
Weight = Tuple[int, ...]


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


class VermaWords:
    """Shapovalov-form bookkeeping on lowering words for one highest weight."""

    def __init__(self, rs: RootSystem, lam: Weight):
        self.rs = rs
        self.lam = lam
        self._e_memo: Dict[Tuple[int, Word], Dict[Word, Q]] = {}
        self._form_memo: Dict[Tuple[Word, Word], Q] = {}

    def weight(self, w: Word) -> Weight:
        d = list(self.lam)
        for i in w:
            for j in range(self.rs.rank):
                d[j] -= self.rs.cartan[i][j]
        return tuple(d)

    def e_act(self, i: int, w: Word) -> Dict[Word, Q]:
        """e_i applied to the word w, as a combination of shorter words."""
        if not w:
            return {}
        key = (i, w)
        got = self._e_memo.get(key)
        if got is not None:
            return got
        j, rest = w[0], w[1:]
        out: Dict[Word, Q] = {}
        for w2, c in self.e_act(i, rest).items():
            k = (j,) + w2
            out[k] = out.get(k, Q(0)) + c
        if i == j:
            h = Q(self.weight(rest)[i])
            if h:
                out[rest] = out.get(rest, Q(0)) + h
        out = {k: v for k, v in out.items() if v}
        self._e_memo[key] = out
        return out

    def form(self, u: Word, w: Word) -> Q:
        """Contravariant form <u, w>; nonzero only within one weight space."""
        if len(u) != len(w):
            return Q(0)
        if not u:
            return Q(1)
        key = (u, w)
        got = self._form_memo.get(key)
        if got is not None:
            return got
        i, rest = u[0], u[1:]
        tot = Q(0)
        for w2, c in self.e_act(i, w).items():
            tot += c * self.form(rest, w2)
        self._form_memo[key] = tot
        return tot


def word_representation(rs: RootSystem, lam: Weight) -> Representation:
    """V(lam) on the Gram-independent lowering words, its matrices read by
    Gram solves of the word-level form."""
    vw = VermaWords(rs, lam)
    l = rs.rank

    # grow the word basis level by level, keeping Gram-independent words
    basis: List[Word] = [()]
    by_weight: Dict[Weight, List[Word]] = {lam: [()]}
    grams: Dict[Weight, List[List[Q]]] = {lam: [[Q(1)]]}
    level = [()]
    while level:
        nxt: List[Word] = []
        for w in level:
            for i in range(l):
                cand = (i,) + w
                mu = vw.weight(cand)
                bw = by_weight.setdefault(mu, [])
                gram = grams.setdefault(mu, [])
                col = [vw.form(b, cand) for b in bw]
                self_ip = vw.form(cand, cand)
                if bw:
                    x = _solve_gram(gram, col)
                    schur = self_ip - sum(col[k] * x[k] for k in range(len(bw)))
                else:
                    schur = self_ip
                if schur != 0:
                    for k, b in enumerate(bw):
                        gram[k].append(col[k])
                    gram.append(col + [self_ip])
                    bw.append(cand)
                    basis.append(cand)
                    nxt.append(cand)
        level = nxt

    dim = len(basis)
    index = {w: k for k, w in enumerate(basis)}
    weights = tuple(vw.weight(w) for w in basis)

    def coords_of(combo: Dict[Word, Q], mu: Weight) -> Dict[int, Q]:
        bw = by_weight.get(mu, [])
        if not bw:
            return {}
        rhs = [Q(0)] * len(bw)
        for w, c in combo.items():
            for k, b in enumerate(bw):
                rhs[k] += c * vw.form(b, w)
        x = _solve_gram(grams[mu], rhs)
        return {index[bw[k]]: x[k] for k in range(len(bw)) if x[k]}

    fmats = [[[Q(0)] * dim for _ in range(dim)] for _ in range(l)]
    emats = [[[Q(0)] * dim for _ in range(dim)] for _ in range(l)]
    for col, w in enumerate(basis):
        mu = vw.weight(w)
        for i in range(l):
            down = (i,) + w
            mu_dn = tuple(m - c for m, c in zip(mu, rs.cartan[i]))
            for row, v in coords_of({down: Q(1)}, mu_dn).items():
                fmats[i][row][col] = v
            mu_up = tuple(m + c for m, c in zip(mu, rs.cartan[i]))
            for row, v in coords_of(vw.e_act(i, w), mu_up).items():
                emats[i][row][col] = v

    e_chev = tuple(np.array(m, dtype=object) for m in emats)
    f_chev = tuple(np.array(m, dtype=object) for m in fmats)
    rep = Representation(rs, lam, dim, tuple(basis), weights, e_chev, f_chev)
    _verify_representation(rep)
    return rep
