"""Matrix models of small highest-weight representations.

The module realizes V(lambda) on a basis of lowering-operator words using the
contravariant (Shapovalov) form: a word is a basis vector iff it increases the
Gram rank of its weight space, and matrix entries come from exact rational
Gram solves.  This yields Chevalley-generator matrices for any type, which is
how the registered faithful representations (standard / 7-dim for G2 /
26-dim for F4 / 27-dim for E6) are produced uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Dict, List, Tuple

import numpy as np

from .characters import WeightPairing, fundamental_dim, fundamental_dims
from .chevalley import ChevalleyAlgebra, build_chevalley
from .rootcore import InvariantViolation, Root, RootSystem, build_root_system, check_bound

Word = Tuple[int, ...]  # f_{i1} f_{i2} ... applied to the highest vector
Weight = Tuple[int, ...]


class UnsupportedRepresentationError(ValueError):
    """No registered matrix representation for this type."""


class NilpotentExp:
    """exp(t x) for a nilpotent matrix x, as its finite series.

    The terms x^k/k! are built once, up to the last nonzero power; exp(t x)
    is then sum_k t^k x^k/k!.  Chevalley generators move weight spaces by a
    root, so their powers vanish exactly, also in floating point.  A matrix
    whose n-th power is not exactly zero raises ValueError.

    For an array of t the result is the stack of exp(t x) over t's shape.
    Each t takes its own row-times-terms product, so every matrix of the
    stack is bitwise the one a single t gives.
    """

    def __init__(self, x: np.ndarray):
        n = x.shape[0]
        power = np.eye(n)
        terms = [power]
        for k in range(1, n + 1):
            power = power @ x / k
            if not power.any():
                break
            terms.append(power)
        else:
            raise ValueError(f"matrix is not nilpotent: its {n}-th power is nonzero")
        self.terms = np.stack(terms).astype(complex)
        self.terms.flags.writeable = False
        self._k = np.arange(len(terms))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=complex)
        flat = t[..., None, None] ** self._k @ self.terms.reshape(len(self._k), -1)
        return flat.reshape(t.shape + self.terms.shape[1:])


def weyl_representative(exp_e: NilpotentExp, exp_f: NilpotentExp) -> np.ndarray:
    """n = exp(-e) exp(f) exp(-e), the group representative of a simple reflection."""
    a = exp_e(-1)
    out = a @ exp_f(1) @ a
    out.flags.writeable = False
    return out


def _solve_gram(gram: List[List[Q]], rhs: List[Q]) -> List[Q]:
    n = len(gram)
    M = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        pv = M[c][c]
        M[c] = [x / pv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [M[r][k] - f * M[c][k] for k in range(n + 1)]
    return [M[r][n] for r in range(n)]


class _VermaWords:
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


@dataclass
class Representation:
    rs: RootSystem
    highest_weight: Weight
    dim: int
    basis_words: Tuple[Word, ...]
    basis_weights: Tuple[Weight, ...]
    e_chev: Tuple[np.ndarray, ...]      # object arrays of Fractions
    f_chev: Tuple[np.ndarray, ...]
    _root_mats: Dict[Root, np.ndarray] = field(default_factory=dict)
    _float_mats: Dict[Tuple[str, int], np.ndarray] = field(default_factory=dict)
    _section_factors: Dict[int, Tuple[NilpotentExp, np.ndarray]] = field(default_factory=dict)
    _alg: ChevalleyAlgebra | None = None
    _p0: np.ndarray | None = None

    @property
    def name(self) -> str:
        lam = "".join(str(c) for c in self.highest_weight)
        return f"{self.rs.type}-hw{lam}-dim{self.dim}"

    @cached_property
    def weight_values(self) -> WeightPairing:
        """mu(h) per basis vector, called with h in H_{alpha_i} coordinates.

        The integer table of the basis weights, built once: row k holds
        mu_k(H_{alpha_j}) = w_j (alpha_j, alpha_j)/2 over one denominator,
        and mu(h) is computed exactly and rounded once.
        """
        return WeightPairing(str(self.rs.type), self.basis_weights)

    def p0_matrix(self) -> np.ndarray:
        """The principal element exp(2 pi i x0/s) in this representation, built once (read-only)."""
        if self._p0 is None:
            s = self.rs.coxeter_number
            vals = self.weight_values(self.rs.x0_coords)
            self._p0 = np.diag(np.exp(2j * np.pi * vals / s))
            self._p0.flags.writeable = False
        return self._p0

    def _float_mat(self, kind: str, i: int) -> np.ndarray:
        got = self._float_mats.get((kind, i))
        if got is None:
            exact = self.e_chev[i] if kind == "e" else self.f_chev[i]
            # int / int rounds correctly, as float(Fraction) does
            got = np.array([[x.numerator / x.denominator for x in row] for row in exact.tolist()])
            got.flags.writeable = False
            self._float_mats[(kind, i)] = got
        return got

    def e_float(self, i: int) -> np.ndarray:
        """Float matrix of e_i, built once (read-only)."""
        return self._float_mat("e", i)

    def f_float(self, i: int) -> np.ndarray:
        """Float matrix of f_i, built once (read-only)."""
        return self._float_mat("f", i)

    def section_factors(self, i: int) -> Tuple[NilpotentExp, np.ndarray]:
        """(t -> exp(t e_i), n_i) for the cross-section, built once per node (0-based i)."""
        got = self._section_factors.get(i)
        if got is None:
            exp_e = NilpotentExp(self.e_float(i))
            got = (exp_e, weyl_representative(exp_e, NilpotentExp(self.f_float(i))))
            self._section_factors[i] = got
        return got

    def algebra(self) -> ChevalleyAlgebra:
        if self._alg is None:
            self._alg = build_chevalley(str(self.rs.type))
        return self._alg

    def root_matrix(self, root: Root) -> np.ndarray:
        """Matrix of the normalized root vector e_root (complex entries).

        Simple root vectors are L_i e_i / f_i; composite ones are built by
        bracket chains following the algebra's own structure constants, N
        read as a float from its integer tables (ChevalleyAlgebra.n_float).
        """
        got = self._root_mats.get(root)
        if got is not None:
            return got
        rs = self.rs
        alg = self.algebra()
        ht = sum(root)
        if ht == 1 and root in rs.simple_roots:
            i = rs.simple_roots.index(root)
            li = rs.form[i][i] / 2
            out = float(li) * self.e_float(i).astype(np.complex128)
        elif ht == -1 and tuple(-c for c in root) in rs.simple_roots:
            i = rs.simple_roots.index(tuple(-c for c in root))
            out = self.f_float(i).astype(np.complex128)
        else:
            sign = 1 if ht > 0 else -1
            for j, aj in enumerate(rs.simple_roots):
                step = aj if sign > 0 else tuple(-c for c in aj)
                rest = tuple(r - s_ for r, s_ in zip(root, step))
                if rs.is_root(rest):
                    n = alg.n_float(step, rest)
                    a, b = self.root_matrix(step), self.root_matrix(rest)
                    out = (a @ b - b @ a) / complex(n)
                    break
            else:
                raise ValueError(f"cannot decompose root {root}")
        self._root_mats[root] = out
        return out


def _build_representation(rs: RootSystem, lam: Weight) -> Representation:
    vw = _VermaWords(rs, lam)
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


def _scaled_generators(rep: Representation) -> Tuple[np.ndarray, np.ndarray, int]:
    """L*e_i and L*f_i as int64 stacks, L the lcm of all their denominators.

    Raises InvariantViolation when the entries are so large that the
    commutator check could overflow int64.
    """
    mats = rep.e_chev + rep.f_chev
    scale = math.lcm(*(x.denominator for m in mats for x in m.flat))
    ints = [[[x.numerator * (scale // x.denominator) for x in row] for row in m] for m in mats]
    top = max(abs(x) for m in ints for row in m for x in row)
    weight_top = max(abs(w) for mu in rep.basis_weights for w in mu)
    check_bound(2 * rep.dim * top * top + scale * scale * weight_top, f"{rep.name} generators")
    stack = np.array(ints, dtype=np.int64).reshape(2, rep.rs.rank, rep.dim, rep.dim)
    return stack[0], stack[1], scale


def _verify_representation(rep: Representation):
    """Exact Chevalley-relation checks: [e_i, f_j] = delta_ij h_i, [h, e] = <.,.> e.

    The generators are scaled to integers by the lcm L of their
    denominators, so [e_i, f_j] is checked as an int64 matmul against
    L^2 delta_ij h_i.
    """
    l = rep.rs.rank
    dim = rep.dim
    E, F, scale = _scaled_generators(rep)
    weights = np.array(rep.basis_weights, dtype=np.int64).reshape(dim, l)
    comm = E[:, None] @ F[None, :] - F[None, :] @ E[:, None]  # comm[i, j] = [e_i, f_j]
    for i in range(l):
        comm[i, i] -= np.diag(scale * scale * weights[:, i])
    bad = np.argwhere(comm != 0)
    if len(bad):
        i, j, r, c = (int(x) for x in bad[0])
        got = Q(int(comm[i, j, r, c]), scale * scale)
        want = Q(int(rep.basis_weights[r][i])) if i == j and r == c else Q(0)
        raise InvariantViolation(
            f"[e_{i}, f_{j}] deviates at ({r},{c}): {got + want} != {want}"
        )
    # e_i, f_i shift weights by +-alpha_i
    for i in range(l):
        ai = np.array(rep.rs.cartan[i], dtype=np.int64)  # alpha_i in Dynkin labels
        for name, mats, sign in (("e", E, 1), ("f", F, -1)):
            rows, cols = np.nonzero(mats[i])
            moved = np.flatnonzero((weights[rows] != weights[cols] + sign * ai).any(axis=1))
            if moved.size:
                r, c = rows[moved[0]], cols[moved[0]]
                raise InvariantViolation(
                    f"{name}_{i} moves the weight at ({r},{c}) by other than alpha_{i}"
                )


@lru_cache(maxsize=None)
def fundamental_representation(type_name: str, index: int) -> Representation:
    """V(omega_index) as explicit matrices (index 1-based), checked against its Weyl dimension.

    An index whose dimension exceeds the character cap is refused before
    anything is built (characters.fundamental_dim).
    """
    expected = fundamental_dim(type_name, index)
    rs = build_root_system(type_name)
    lam = tuple(int(i == index - 1) for i in range(rs.rank))
    rep = _build_representation(rs, lam)
    if rep.dim != expected:
        raise InvariantViolation(
            f"constructed dimension {rep.dim} != Weyl dimension {expected}"
        )
    return rep


def registered_index(type_name: str) -> int:
    """The fundamental index of the registered representation, nothing built.

    The minimal-dimension fundamental representation (lowest index on ties):
    standard for A-D, 7-dim for G2, 26-dim for F4, 27-dim for E6.  E7/E8 are
    not registered (UnsupportedRepresentationError); the combinatorial
    modules still cover them.
    """
    rs = build_root_system(type_name)
    if rs.type.family == "E" and rs.rank >= 7:
        raise UnsupportedRepresentationError(
            f"no registered representation for {type_name}"
        )
    if rs.type.family in "ABCD":
        return 1
    return int(np.argmin(fundamental_dims(type_name))) + 1


@lru_cache(maxsize=None)
def registered_representation(type_name: str) -> Representation:
    """The faithful matrix representation used by the group-level pipeline:
    V(omega_k), k = registered_index(type_name)."""
    return fundamental_representation(type_name, registered_index(type_name))
