"""Weight multiplicities of the basic irreducible representations.

Dominant multiplicities come from the Freudenthal recursion, full weight
lists from Weyl-orbit expansion, with the Weyl dimension formula as an
independent cross-check.  Weights are handled in Dynkin (fundamental-weight)
coordinates, where dominance and reflections are integer operations, and
every inner product is an integer sum over the root system's scaled simple
lengths, so the recursion runs in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .rootcore import INT_LIMIT, InvariantViolation, Root, RootSystem, build_root_system
from .scalars import integers

Weight = Tuple[int, ...]

DEFAULT_DIM_CAP = 10**6
# integers below 2^53 are exact as floats
_EXACT = 2**53


class CharacterScaleError(ValueError):
    """Requested representation exceeds the dimension cap DEFAULT_DIM_CAP."""


@dataclass(frozen=True)
class CharacterTable:
    type_name: str
    fundamental_index: int          # 1-based
    highest_weight: Weight
    weights: Tuple[Tuple[Weight, int], ...]
    dim: int


def weyl_dims(rs: RootSystem, lams: Sequence[Weight]) -> Tuple[int, ...]:
    """prod over positive roots of (lam+rho, alpha)/(rho, alpha), in integers, for each lam.

    One pairing table serves every lam: row alpha holds alpha_j L_j, L the
    simple_lengths, so (mu, alpha) is that row dotted with mu's Dynkin labels
    over the common 2 length_den, which cancels from the quotient; (rho,
    alpha) is the row sum.  Each lam is one product with the table, in int64
    while its bound stays below INT_LIMIT and in Python ints beyond.
    """
    rows = np.array(rs.positive_roots, dtype=np.int64) * np.array(rs.simple_lengths, dtype=np.int64)
    rho = rows.sum(axis=1)
    den = math.prod(rho.tolist())
    dims = []
    for lam in lams:
        top = max(map(abs, lam), default=0)
        vec = np.array(lam, dtype=np.int64 if int(rho.max()) * (top + 1) < INT_LIMIT else object)
        num = math.prod((rows @ vec + rho).tolist())
        if num % den:
            raise InvariantViolation(f"Weyl dimension of {tuple(lam)} is not an integer")
        dims.append(num // den)
    return tuple(dims)


def weyl_dim(rs: RootSystem, lam: Weight) -> int:
    """The Weyl dimension of V(lam), lam in Dynkin labels (weyl_dims)."""
    return weyl_dims(rs, [lam])[0]


def _reflect(rs: RootSystem, i: int, d: Weight) -> Weight:
    """The simple reflection s_{alpha_i} (0-based i) on Dynkin labels: d - d_i alpha_i."""
    return tuple(x - d[i] * a for x, a in zip(d, rs.cartan[i]))


def _dominant_conjugate(rs: RootSystem, d: Weight) -> Weight:
    while True:
        for i, c in enumerate(d):
            if c < 0:
                d = _reflect(rs, i, d)
                break
        else:
            return d


def _orbit(rs: RootSystem, d: Weight) -> List[Weight]:
    seen = {d}
    frontier = [d]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                v = _reflect(rs, i, w)
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return sorted(seen)


def _dominant_weights(rs: RootSystem, lam: Weight, pos_dyn) -> List[Tuple[Weight, Root]]:
    """All dominant mu below lam, each with the simple-root coordinates of lam - mu,
    sorted by the height of lam - mu."""
    found = {lam: (0,) * rs.rank}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for a, a_dyn in zip(rs.positive_roots, pos_dyn):
                v = tuple(x - y for x, y in zip(w, a_dyn))
                if all(c >= 0 for c in v) and v not in found:
                    found[v] = tuple(x + y for x, y in zip(found[w], a))
                    nxt.append(v)
        frontier = nxt
    return sorted(found.items(), key=lambda item: (sum(item[1]), item[0]))


def _freudenthal(rs: RootSystem, lam: Weight) -> Dict[Weight, int]:
    """Dominant multiplicities of V(lam) by Freudenthal's recursion, in integers.

    For w in Dynkin labels and alpha in simple-root coordinates, (w, alpha) =
    sum_j alpha_j w_j L_j / (2 den), L the simple_lengths and den the
    length_den.  With lam - mu = sum_j c_j alpha_j, (lam+rho)^2 - (mu+rho)^2 =
    (lam - mu, lam + mu + 2 rho) = sum_j c_j (lam_j + mu_j + 2) L_j / (2 den).
    The factor 1/(2 den) cancels from the quotient, which must divide exactly.
    """
    lengths = rs.simple_lengths
    pos = [(rs.to_dyn(a), tuple(c * n for c, n in zip(a, lengths))) for a in rs.positive_roots]
    doms = _dominant_weights(rs, lam, [a_dyn for a_dyn, _ in pos])
    mult: Dict[Weight, int] = {lam: 1}
    for mu, c in doms[1:]:
        acc = 0
        for a_dyn, a_len in pos:
            k = 1
            while True:
                w = tuple(m + k * x for m, x in zip(mu, a_dyn))
                m_w = mult.get(_dominant_conjugate(rs, w), 0)
                if m_w == 0:
                    break  # weight strings are unbroken: first gap ends the ray
                acc += m_w * sum(x * y for x, y in zip(w, a_len))
                k += 1
        denom = sum(ci * (a + b + 2) * n for ci, a, b, n in zip(c, lam, mu, lengths))
        if denom == 0:
            raise ArithmeticError("Freudenthal denominator vanished")
        m, rem = divmod(2 * acc, denom)
        if rem:
            raise InvariantViolation(
                f"Freudenthal multiplicity of {mu} is not an integer: {Q(2 * acc, denom)}"
            )
        if m:
            mult[mu] = m
    return mult


@lru_cache(maxsize=None)
def fundamental_dims(type_name: str) -> Tuple[int, ...]:
    """The Weyl dimensions of V(omega_1), .., V(omega_l), formed once per type."""
    rs = build_root_system(type_name)
    return weyl_dims(rs, np.eye(rs.rank, dtype=np.int64).tolist())


def fundamental_dim(type_name: str, index: int) -> int:
    """The Weyl dimension of V(omega_index), index 1-based.

    Raises CharacterScaleError when it exceeds DEFAULT_DIM_CAP ("out of desk
    scale"), before anything of that size is built.
    """
    dims = fundamental_dims(type_name)
    if not 1 <= index <= len(dims):
        raise ValueError(f"fundamental index must be 1..{len(dims)}")
    dim = dims[index - 1]
    if dim > DEFAULT_DIM_CAP:
        raise CharacterScaleError(
            f"character table for {type_name} omega_{index} has dimension {dim}, "
            f"out of desk scale (cap {DEFAULT_DIM_CAP})"
        )
    return dim


@lru_cache(maxsize=None)
def fundamental_characters(type_name: str, index: int) -> CharacterTable:
    """Weight/multiplicity table of the fundamental representation V(omega_index).

    index is 1-based.  Raises CharacterScaleError when the Weyl dimension
    exceeds DEFAULT_DIM_CAP (fundamental_dim).
    """
    dim = fundamental_dim(type_name, index)
    rs = build_root_system(type_name)
    lam = tuple(int(i == index - 1) for i in range(rs.rank))
    mult = _freudenthal(rs, lam)
    weights: List[Tuple[Weight, int]] = []
    for mu, m in mult.items():
        for w in _orbit(rs, mu):
            weights.append((w, m))
    weights.sort()
    total = sum(m for _, m in weights)
    if total != dim:
        raise ArithmeticError(
            f"character table dimension {total} disagrees with Weyl formula {dim}"
        )
    return CharacterTable(type_name, index, lam, tuple(weights), dim)


def weight_pairing(rs: RootSystem, weight_dyn: Weight, h_coords) -> Q:
    """mu(h) for mu in Dynkin coordinates and h in the H_{alpha_i} basis, exactly.

    Through the Cartan inverse and the invariant form, in Fractions (a float
    coordinate at its exact binary value): the reference for WeightPairing.
    """
    l = rs.rank
    ainv = rs.cartan_inv
    simple = [sum(Q(weight_dyn[i]) * ainv[i][j] for i in range(l)) for j in range(l)]
    return rs.pairing(simple, h_coords)


class WeightPairing:
    """mu_k(h) for a list of weights mu_k (Dynkin labels), h in H_{alpha_j} coordinates.

    The one evaluator of weight pairings.  By definition mu(H_{alpha_j}) =
    (mu, alpha_j) = w_j (alpha_j, alpha_j)/2 for w the Dynkin labels of mu, so
    row k is w times the root system's simple_lengths, over 2 length_den:
    integers, with no Cartan inverse.  Calling it computes mu(h) exactly (a float
    coordinate at its exact binary value) and rounds once: in one int64
    product while every numerator and the denominator stay below 2^53, in
    Python ints otherwise.
    """

    def __init__(self, type_name: str, weights: Sequence[Weight]):
        rs = build_root_system(type_name)
        lengths = np.array(rs.simple_lengths, dtype=np.int64)
        self._matrix = np.array(weights, dtype=np.int64).reshape(len(weights), rs.rank) * lengths
        self.rows = tuple(map(tuple, self._matrix.tolist()))
        self.den = 2 * rs.length_den
        self._norm = int(np.abs(self._matrix).sum(axis=1).max(initial=0))

    def __call__(self, h_coords) -> np.ndarray:
        h_int, h_den = integers([c if isinstance(c, Q) else Q(c) for c in h_coords])
        den = self.den * h_den
        if den < _EXACT and self._norm * max(map(abs, h_int), default=0) < _EXACT:
            # every numerator and den below 2^53: exact in int64 and as floats, so
            # the float quotient is the correctly rounded int / int
            return (self._matrix @ np.array(h_int, dtype=np.int64)) / den
        # int / int true division rounds correctly, as float(Fraction) does
        return np.array([sum(t * c for t, c in zip(row, h_int)) / den for row in self.rows])


@lru_cache(maxsize=None)
def _table_pairing(type_name: str, index: int) -> Tuple[WeightPairing, np.ndarray]:
    """The pairing of a fundamental character table's weights, and their multiplicities."""
    table = fundamental_characters(type_name, index)
    mults = np.array([float(m) for _, m in table.weights])
    return WeightPairing(type_name, [w for w, _ in table.weights]), mults


def character_value(rs: RootSystem, table: CharacterTable, y) -> complex:
    """chi(e^{2 pi i y}) = sum of mult * e^{2 pi i mu(y)} over the weight table."""
    pairing, mults = _table_pairing(str(rs.type), table.fundamental_index)
    return complex(np.sum(mults * np.exp(2j * np.pi * pairing(y))))


def all_fundamental_tables(rs: RootSystem):
    return tuple(fundamental_characters(str(rs.type), i + 1) for i in range(rs.rank))
