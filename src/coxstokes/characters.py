"""Weight multiplicities of the basic irreducible representations.

Dominant multiplicities come from the Freudenthal recursion, full weight
lists from Weyl-orbit expansion, with the Weyl dimension formula as an
independent cross-check.  Weights are handled in Dynkin (fundamental-weight)
coordinates, where dominance and reflections are integer operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .rootcore import InvariantViolation, RootSystem, build_root_system
from .scalars import mat_inv, mat_mul

Weight = Tuple[int, ...]

DEFAULT_DIM_CAP = 10**6


class CharacterScaleError(ValueError):
    """Requested representation exceeds the dimension cap DEFAULT_DIM_CAP."""


@dataclass(frozen=True)
class CharacterTable:
    type_name: str
    fundamental_index: int          # 1-based
    highest_weight: Weight
    weights: Tuple[Tuple[Weight, int], ...]
    dim: int


class _Lattice:
    """Dynkin-coordinate weight arithmetic for one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        A = [[Q(rs.cartan[i][j]) for j in range(l)] for i in range(l)]
        Ainv = mat_inv(A)
        G = [[rs.form[i][j] for j in range(l)] for i in range(l)]
        AinvT = [[Ainv[j][i] for j in range(l)] for i in range(l)]
        self.W = mat_mul(mat_mul(Ainv, G), AinvT)  # (mu,nu) = mu W nu^T
        self.Ainv = Ainv
        self.pos_dyn = [self.to_dyn(r) for r in rs.positive_roots]
        self.rho = tuple([1] * l)
        # (mu, alpha_j) = mu_j (alpha_j, alpha_j)/2: these lengths, scaled to integers
        den = math.lcm(*(Q(rs.form[j][j]).denominator for j in range(l)))
        self._len_sq = tuple(int(rs.form[j][j] * den) for j in range(l))
        self._len_den = den

    def to_dyn(self, root) -> Weight:
        l = self.rs.rank
        return tuple(
            sum(root[j] * self.rs.cartan[j][i] for j in range(l)) for i in range(l)
        )

    def to_simple_coords(self, d: Weight) -> Tuple[Q, ...]:
        l = self.rs.rank
        return tuple(sum(Q(d[i]) * self.Ainv[i][j] for i in range(l)) for j in range(l))

    def inner(self, a, b) -> Q:
        l = self.rs.rank
        return sum(Q(a[i]) * self.W[i][j] * Q(b[j]) for i in range(l) for j in range(l))

    def reflect(self, i: int, d: Weight) -> Weight:
        l = self.rs.rank
        return tuple(d[j] - d[i] * self.rs.cartan[i][j] for j in range(l))

    def dominant_conjugate(self, d: Weight) -> Weight:
        while True:
            for i, c in enumerate(d):
                if c < 0:
                    d = self.reflect(i, d)
                    break
            else:
                return d

    def orbit(self, d: Weight) -> List[Weight]:
        seen = {d}
        frontier = [d]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(self.rs.rank):
                    v = self.reflect(i, w)
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return sorted(seen)

    def weyl_dim(self, lam: Weight) -> int:
        """prod over positive roots of (lam+rho, alpha)/(rho, alpha), in integers."""
        num = den = 1
        for root in self.rs.positive_roots:
            num *= sum(c * (m + 1) * w for c, m, w in zip(root, lam, self._len_sq))
            den *= sum(c * w for c, w in zip(root, self._len_sq))
        if num % den:
            raise InvariantViolation(f"Weyl dimension of {lam} is not an integer")
        return num // den


@lru_cache(maxsize=None)
def _lattice(type_name: str) -> _Lattice:
    return _Lattice(build_root_system(type_name))


def _dominant_weights(lat: _Lattice, lam: Weight) -> List[Weight]:
    """All dominant weights below lam, sorted by decreasing height of mu."""
    found = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for a in lat.pos_dyn:
                v = tuple(x - y for x, y in zip(w, a))
                if all(c >= 0 for c in v) and v not in found:
                    found.add(v)
                    nxt.append(v)
        frontier = nxt

    def level(mu):
        # height of lam - mu in simple-root coordinates
        diff = lat.to_simple_coords(tuple(a - b for a, b in zip(lam, mu)))
        return sum(diff)

    return sorted(found, key=lambda mu: (level(mu), mu))


def _freudenthal(lat: _Lattice, lam: Weight) -> Dict[Weight, int]:
    doms = _dominant_weights(lat, lam)
    mult: Dict[Weight, int] = {lam: 1}
    lam_rho = tuple(a + b for a, b in zip(lam, lat.rho))
    c_top = lat.inner(lam_rho, lam_rho)
    for mu in doms[1:]:
        acc = Q(0)
        for a in lat.pos_dyn:
            k = 1
            while True:
                w = tuple(m + k * x for m, x in zip(mu, a))
                m_w = mult.get(lat.dominant_conjugate(w), 0)
                if m_w == 0:
                    break  # weight strings are unbroken: first gap ends the ray
                acc += 2 * m_w * lat.inner(w, a)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu, lat.rho))
        denom = c_top - lat.inner(mu_rho, mu_rho)
        if denom == 0:
            raise ArithmeticError("Freudenthal denominator vanished")
        m = acc / denom
        if m.denominator != 1:
            raise InvariantViolation(f"Freudenthal multiplicity of {mu} is not an integer: {m}")
        if m:
            mult[mu] = int(m)
    return mult


@lru_cache(maxsize=None)
def fundamental_characters(type_name: str, index: int) -> CharacterTable:
    """Weight/multiplicity table of the fundamental representation V(omega_index).

    index is 1-based.  Raises CharacterScaleError when the Weyl dimension
    exceeds DEFAULT_DIM_CAP ("out of desk scale").
    """
    rs = build_root_system(type_name)
    if not 1 <= index <= rs.rank:
        raise ValueError(f"fundamental index must be 1..{rs.rank}")
    lat = _lattice(str(rs.type))
    lam = tuple(int(i == index - 1) for i in range(rs.rank))
    dim = lat.weyl_dim(lam)
    if dim > DEFAULT_DIM_CAP:
        raise CharacterScaleError(
            f"character table for {type_name} omega_{index} has dimension {dim}, "
            f"out of desk scale (cap {DEFAULT_DIM_CAP})"
        )

    mult = _freudenthal(lat, lam)
    weights: List[Tuple[Weight, int]] = []
    for mu, m in mult.items():
        for w in lat.orbit(mu):
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
    return rs.pairing(_lattice(str(rs.type)).to_simple_coords(weight_dyn), h_coords)


class WeightPairing:
    """mu_k(h) for a list of weights mu_k (Dynkin labels), h in H_{alpha_j} coordinates.

    The one evaluator of weight pairings.  By definition mu(H_{alpha_j}) =
    (mu, alpha_j) = w_j (alpha_j, alpha_j)/2 for w the Dynkin labels of mu, so
    row k is w times the scaled lengths _Lattice._len_sq, over 2 den: integers,
    with no Cartan inverse.  Calling it computes mu(h) exactly (a float
    coordinate at its exact binary value) and rounds once.
    """

    def __init__(self, type_name: str, weights: Sequence[Weight]):
        lat = _lattice(type_name)
        self.rows = tuple(tuple(c * n for c, n in zip(w, lat._len_sq)) for w in weights)
        self.den = 2 * lat._len_den

    def __call__(self, h_coords) -> np.ndarray:
        h = [Q(c) for c in h_coords]
        h_den = math.lcm(*(c.denominator for c in h))
        h_int = [int(c * h_den) for c in h]
        den = self.den * h_den
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
