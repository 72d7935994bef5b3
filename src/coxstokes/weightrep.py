"""Matrix models of small highest-weight representations.

The module realizes V(lambda) on a basis of lowering-operator words, built one
level at a time with the contravariant (Shapovalov) form: a word f_i b is a
basis vector iff it increases the Gram rank of its weight space.  The form,
and the generators' matrix entries, are read off the levels already built,
in exact rationals.  This yields Chevalley-generator matrices for any type,
which is how the registered faithful representations (standard / 7-dim for
G2 / 26-dim for F4 / 27-dim for E6) are produced uniformly.
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
    """V(lam) grown one level at a time from the part already built.

    The candidates below a level are f_i b for its basis vectors b, in
    order; one is kept iff it raises the Gram rank of its weight space.  Its
    form with a kept f_j b' is <b', e_j f_i b>, and
    e_j f_i b = f_i (e_j b) + [i = j] <wt b, alpha_i^vee> b
    lies in b's level, where e_j b and f_i are already known.  That vector
    is a kept candidate's column of e_j; a rejected one's column of f_i is
    its Gram solve on the kept vectors of its weight.
    """
    l = rs.rank
    words: List[Word] = [()]
    weights: List[Weight] = [lam]
    parent: List[Tuple[int, int]] = [(-1, -1)]  # (j, b') for the vector f_j b'; none at the top
    pos = [0]  # place within its weight space
    e_cols: List[List[Dict[int, Q]]] = [[{} for _ in range(l)]]  # e_cols[n][j]: e_j of vector n
    f_cols: List[List[Dict[int, Q]]] = [[{} for _ in range(l)]]
    by_weight: Dict[Weight, List[int]] = {lam: [0]}
    grams: Dict[Weight, List[List[Q]]] = {lam: [[Q(1)]]}

    def form(b: int, v: Dict[int, Q]) -> Q:
        """<b, v> for v a combination of basis vectors of b's weight."""
        row = grams[weights[b]][pos[b]]
        return sum((c * row[pos[m]] for m, c in v.items()), Q(0))

    level = [0]
    while level:
        nxt: List[int] = []
        for b in level:
            for i in range(l):
                mu = tuple(m - c for m, c in zip(weights[b], rs.cartan[i]))
                up = []  # up[j] = e_j f_i b
                for j in range(l):
                    v: Dict[int, Q] = {}
                    for m, c in e_cols[b][j].items():
                        for r, d in f_cols[m][i].items():
                            v[r] = v.get(r, Q(0)) + c * d
                    if i == j:
                        v[b] = v.get(b, Q(0)) + weights[b][i]
                    up.append(v)
                bw = by_weight.setdefault(mu, [])
                gram = grams.setdefault(mu, [])
                col = [form(parent[n][1], up[parent[n][0]]) for n in bw]
                self_ip = form(b, up[i])
                x = _solve_gram(gram, col)
                if self_ip - sum(c * y for c, y in zip(col, x)) != 0:
                    n = len(words)
                    for k, row in enumerate(gram):
                        row.append(col[k])
                    gram.append(col + [self_ip])
                    pos.append(len(bw))
                    bw.append(n)
                    words.append((i,) + words[b])
                    weights.append(mu)
                    parent.append((i, b))
                    e_cols.append(up)
                    f_cols.append([{} for _ in range(l)])
                    f_cols[b][i] = {n: Q(1)}
                    nxt.append(n)
                else:
                    f_cols[b][i] = {bw[k]: y for k, y in enumerate(x) if y}
        level = nxt

    dim = len(words)

    def matrix(i: int, cols: List[List[Dict[int, Q]]]) -> np.ndarray:
        out = [[Q(0)] * dim for _ in range(dim)]
        for c, col in enumerate(cols):
            for r, v in col[i].items():
                out[r][c] = v
        return np.array(out, dtype=object)

    e_chev = tuple(matrix(i, e_cols) for i in range(l))
    f_chev = tuple(matrix(i, f_cols) for i in range(l))
    rep = Representation(rs, lam, dim, tuple(words), tuple(weights), e_chev, f_chev)
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
