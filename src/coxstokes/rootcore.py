"""Exact root systems for the simple types A-G.

Roots are integer coordinate tuples in the simple-root basis.  The bilinear
form is the Weyl-invariant one normalized so the highest root has squared
length 2.  All arithmetic here is exact: the Gram matrix, the Cartan check
and the Gram inverse run in Python ints, and the rational data (the form, its
inverse, the Cartan inverse) is one Fraction per entry, formed at the end.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .scalars import Vector, int_inverse, integers, qvec

Root = Tuple[int, ...]


class UnsupportedTypeError(ValueError):
    """Raised for (family, rank) pairs outside the supported simple types."""


class InvariantViolation(AssertionError):
    """An exact build-time identity (Jacobi, magnitude, root data, ...) failed.

    Raised explicitly, never by ``assert``, so the checks also hold under
    ``python -O``.
    """


class RankScaleError(ValueError):
    """Requested type exceeds the rank cap RANK_CAP."""


# Largest rank build_root_system builds: its roots grow as l^2 and its exact
# Gram inverse as l^3 (in Python ints).  A whole describe process took 0.3 s at
# A42 and A45 and 0.4-0.5 s at A50, B50 and D50 on a shared 2-vCPU host (with
# the Fraction Gram matrix and inverse it took 0.9 s at A42 and 1.1-1.7 s at
# A44-A50, and A300 ran past 3 minutes and 1 GB)
RANK_CAP = 50

# Largest magnitude an integer check may reach; check_bound raises above it,
# so int64 arithmetic (limit 2^63) can never wrap.
INT_LIMIT = 2**62


def check_bound(bound: int, what: str):
    """Raise InvariantViolation when an int64 computation bounded by bound could wrap."""
    if bound >= INT_LIMIT:
        raise InvariantViolation(f"{what}: magnitude bound {bound} could overflow int64")


# The signed integer dtypes, narrowest first, each with the largest magnitude
# a check may reach in it: as INT_LIMIT is for int64, half the wrap point.
_WORKING_DTYPES = ((np.int8, 2**6), (np.int16, 2**14), (np.int32, 2**30), (np.int64, INT_LIMIT))


def working_dtype(bound: int, what: str) -> type:
    """The narrowest integer dtype in which a computation bounded by bound cannot wrap.

    check_bound first: InvariantViolation when not even int64 holds it.
    """
    check_bound(bound, what)
    return next(dtype for dtype, limit in _WORKING_DTYPES if bound < limit)


_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 3, "F": 4, "G": 2}


@dataclass(frozen=True, order=True)
class AlgebraType:
    family: str
    rank: int

    def __post_init__(self):
        fam, l = self.family, self.rank
        if fam not in "ABCDEFG":
            raise UnsupportedTypeError(f"unsupported type: unknown family {fam!r}")
        if fam == "E":
            if l not in (6, 7, 8):
                raise UnsupportedTypeError(f"unsupported type: E{l}")
        elif fam in ("F", "G"):
            if l != _MIN_RANK[fam]:
                raise UnsupportedTypeError(f"unsupported type: {fam}{l}")
        elif l < _MIN_RANK[fam]:
            raise UnsupportedTypeError(f"unsupported type: {fam}{l} (rank too small)")

    @staticmethod
    def parse(name: "str | AlgebraType") -> "AlgebraType":
        if isinstance(name, AlgebraType):
            return name
        m = re.fullmatch(r"\s*([A-Ga-g])\s*(\d+)\s*", str(name))
        if not m:
            raise UnsupportedTypeError(f"unsupported type: cannot parse {name!r}")
        return AlgebraType(m.group(1).upper(), int(m.group(2)))

    def __str__(self):
        return f"{self.family}{self.rank}"


def _simple_root_vectors(t: AlgebraType) -> List[Vector]:
    """Simple roots in the standard Euclidean realization (Bourbaki numbering)."""
    l = t.rank

    def e(i, n):
        return tuple(Q(int(j == i)) for j in range(n))

    def vsub(x, y):
        return tuple(a - b for a, b in zip(x, y))

    if t.family == "A":
        return [vsub(e(i, l + 1), e(i + 1, l + 1)) for i in range(l)]
    if t.family == "B":
        return [vsub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [e(l - 1, l)]
    if t.family == "C":
        return [vsub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [
            tuple(2 * x for x in e(l - 1, l))
        ]
    if t.family == "D":
        return [vsub(e(i, l), e(i + 1, l)) for i in range(l - 1)] + [
            tuple(a + b for a, b in zip(e(l - 2, l), e(l - 1, l)))
        ]
    if t.family == "G":
        return [
            (Q(1), Q(-1), Q(0)),
            (Q(-2), Q(1), Q(1)),
        ]
    if t.family == "F":
        return [
            (Q(0), Q(1), Q(-1), Q(0)),
            (Q(0), Q(0), Q(1), Q(-1)),
            (Q(0), Q(0), Q(0), Q(1)),
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
    # E6/E7/E8 as subsets of the E8 realization in R^8.
    a1 = (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2))
    a2 = qvec([1, 1, 0, 0, 0, 0, 0, 0])
    rest = [
        qvec([-1, 1, 0, 0, 0, 0, 0, 0]),
        qvec([0, -1, 1, 0, 0, 0, 0, 0]),
        qvec([0, 0, -1, 1, 0, 0, 0, 0]),
        qvec([0, 0, 0, -1, 1, 0, 0, 0]),
        qvec([0, 0, 0, 0, -1, 1, 0, 0]),
        qvec([0, 0, 0, 0, 0, -1, 1, 0]),
    ]
    return [a1, a2] + rest[: l - 2]


def _root_key(root: Root) -> tuple:
    """Canonical order: by height, then so lower-index simple roots come first."""
    return (sum(root), tuple(-c for c in root))


@dataclass(frozen=True)
class RootSystem:
    type: AlgebraType
    cartan: Tuple[Tuple[int, ...], ...]          # A[i][j] = 2(a_i,a_j)/(a_j,a_j)
    form: Tuple[Tuple[Q, ...], ...]              # Gram matrix (a_i, a_j), (psi,psi)=2
    simple_roots: Tuple[Root, ...]
    roots: Tuple[Root, ...]                      # all of Delta, canonical order
    positive_roots: Tuple[Root, ...]
    psi: Root
    marks: Tuple[int, ...]                       # (q_0, q_1, .., q_l) with q_0 = 1
    coxeter_number: int
    exponents: Tuple[int, ...]
    r_coeffs: Tuple[Q, ...]                      # x_0 = sum r_i H_{a_i}
    epsilon_basis: Tuple[Tuple[Q, ...], ...]     # eps_j in the H_{a_i} basis (column j)
    cartan_inv: Tuple[Tuple[Q, ...], ...]        # omega_i = sum_j cartan_inv[i][j] a_j
    simple_lengths: Tuple[int, ...]              # (a_j, a_j) * length_den
    length_den: int                              # lcm of the (a_j, a_j) denominators
    _root_set: frozenset = field(repr=False, default=frozenset())

    @property
    def rank(self) -> int:
        return self.type.rank

    def is_root(self, v: Root) -> bool:
        return v in self._root_set

    def height(self, root: Root) -> int:
        return sum(root)

    def inner(self, x: Root, y: Root) -> Q:
        G = self.form
        n = self.rank
        return sum(x[i] * G[i][j] * y[j] for i in range(n) for j in range(n))

    def pairing(self, root, h_coords) -> Q:
        """alpha(h) for h = sum h_j H_{alpha_j}; alpha may be any weight vector.

        The exact sum_ij alpha_i G_ij h_j (a float coordinate at its exact
        binary value), summed in Python ints over the rows of integer_form.
        """
        rows, den = self.affine_rows
        a, a_den = integers([Q(c) for c in root])
        h, h_den = integers([Q(h_coords[j]) for j in range(self.rank)])
        num = sum(x * g * y for x, row in zip(a, rows) for g, y in zip(row, h))
        return Q(num, a_den * h_den * den)

    @cached_property
    def integer_form(self) -> Tuple[np.ndarray, int]:
        """The Gram matrix scaled to int64 by F = lcm of its denominators, and F.

        Built once per root system and read-only, since every caller shares it.
        """
        den = math.lcm(*(x.denominator for row in self.form for x in row))
        G = np.array(
            [[x.numerator * (den // x.denominator) for x in row] for row in self.form],
            dtype=np.int64,
        )
        G.flags.writeable = False
        return G, den

    @cached_property
    def affine_rows(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """The pairing rows of alpha_1, .., alpha_l and psi as Python ints, and F.

        alpha(h) = (row . h) / F, with F and the rows those of integer_form:
        exact in integers for h given as integer numerators over one
        denominator.  Built once per root system.
        """
        G, den = self.integer_form
        rows = G.tolist()
        psi = [sum(c * row[j] for c, row in zip(self.psi, rows)) for j in range(self.rank)]
        return tuple(map(tuple, rows + [psi])), den

    def to_dyn(self, root) -> Tuple[int, ...]:
        """Dynkin labels <root, alpha_i^vee> of a vector in simple-root coordinates."""
        n = self.rank
        return tuple(sum(root[j] * self.cartan[j][i] for j in range(n)) for i in range(n))

    @property
    def x0_coords(self) -> Tuple[Q, ...]:
        return self.r_coeffs

    @property
    def alpha0(self) -> Root:
        return tuple(-c for c in self.psi)


def _reflection_closure(cartan: List[List[int]], l: int) -> List[Root]:
    """All roots, as the orbit of the simple roots under the simple reflections.

    R_j moves a root b only where its Dynkin label c = <b, alpha_j^vee> is
    nonzero, to b - c alpha_j; so each round forms only those images, from
    the frontier's Dynkin labels.
    """
    A = np.array(cartan, dtype=np.int64)
    frontier = np.eye(l, dtype=np.int64)
    seen = set(map(tuple, frontier.tolist()))
    while len(frontier):
        dyn = frontier @ A  # dyn[k, j] = <root k, alpha_j^vee>
        k, j = np.nonzero(dyn)
        images = frontier[k]
        images[np.arange(len(k)), j] -= dyn[k, j]
        new = []
        for r in map(tuple, images.tolist()):
            if r not in seen:
                seen.add(r)
                new.append(r)
        frontier = np.array(new, dtype=np.int64).reshape(-1, l)
    return sorted(seen, key=_root_key)


def reflection_matrices(cartan) -> np.ndarray:
    """R[j] is the simple reflection R_{alpha_{j+1}} as an int64 matrix on
    columns of root coordinates: it subtracts <root, alpha_j^vee> from entry j."""
    l = len(cartan)
    R = np.tile(np.eye(l, dtype=np.int64), (l, 1, 1))
    R[np.arange(l), np.arange(l), :] -= np.array(cartan, dtype=np.int64).T
    return R


def word_matrix(R: np.ndarray, word: Sequence[int]) -> np.ndarray:
    """Matrix of a reflection word (1-based indices, leftmost acts last)."""
    M = np.eye(R.shape[1], dtype=np.int64)
    for j in word:
        M = M @ R[j - 1]
    return M


def _exponents_from_angles(cartan, l: int, s: int) -> Tuple[int, ...]:
    """Exponents read off the eigenvalue angles of the Coxeter element R_l ... R_1."""
    C = word_matrix(reflection_matrices(cartan), range(l, 0, -1))
    eig = np.linalg.eigvals(C.astype(np.complex128))
    exps = []
    for lam in eig:
        ang = np.angle(lam) % (2 * np.pi)
        m = ang * s / (2 * np.pi)
        mi = int(round(m))
        if abs(m - mi) > 1e-8 or not (1 <= mi <= s - 1):
            raise InvariantViolation(f"Coxeter eigenvalue angle {m} not of the form m/s")
        exps.append(mi)
    return tuple(sorted(exps))


def capped_type(type_name) -> AlgebraType:
    """The parsed type, refused (RankScaleError) above RANK_CAP before anything is built."""
    t = AlgebraType.parse(type_name)
    if t.rank > RANK_CAP:
        raise RankScaleError(
            f"root system {t} has rank {t.rank}, out of desk scale (cap {RANK_CAP})"
        )
    return t


@lru_cache(maxsize=None)
def build_root_system(type_name) -> RootSystem:
    """Construct the full root system with exact Cartan data for one type."""
    t = capped_type(type_name)
    l = t.rank
    # twice the simple roots are integer vectors (the coordinates are halves at
    # most), so 4 (a_i, a_j) is an integer Gram matrix, exact in int64
    V = np.array([[int(2 * c) for c in v] for v in _simple_root_vectors(t)], dtype=np.int64)
    gram = (V @ V.T).tolist()
    cartan = [[0] * l for _ in range(l)]
    for i in range(l):
        for j in range(l):
            cartan[i][j], rem = divmod(2 * gram[i][j], gram[j][j])
            if rem:
                raise InvariantViolation(f"non-integral Cartan entry at ({i}, {j})")

    roots = _reflection_closure(cartan, l)
    positives = [r for r in roots if sum(r) > 0]
    psi = max(positives, key=_root_key)
    for r in positives:
        if any(c < 0 for c in r):
            raise InvariantViolation(f"mixed-sign root {r}")

    # normalize the form so (psi, psi) = 2: form = 2 gram / psi_len
    psi_len = sum(psi[i] * gram[i][j] * psi[j] for i in range(l) for j in range(l))
    form = tuple(tuple(Q(2 * x, psi_len) for x in row) for row in gram)

    marks = (1,) + tuple(psi)
    s = 1 + sum(psi)
    if len(roots) != l * s:
        raise InvariantViolation(f"|Delta| = {len(roots)} != l*s = {l * s}")

    exps = _exponents_from_angles(cartan, l, s)
    if exps[0] != 1 or exps[-1] != s - 1:
        raise InvariantViolation(f"exponents {exps} do not run from 1 to s-1 = {s - 1}")
    if any(exps[i] + exps[l - 1 - i] != s for i in range(l)):
        raise InvariantViolation(f"exponents {exps} are not symmetric about s/2")

    # gram X = d I, so the form's inverse is psi_len X / (2 d); one Fraction per entry
    X, d = int_inverse(gram)
    ginv = tuple(tuple(Q(psi_len * x, 2 * d) for x in row) for row in X)
    r_coeffs = tuple(Q(psi_len * sum(row), 2 * d) for row in X)
    eps = tuple(zip(*ginv))
    # A = G diag(2/G_jj), so A^{-1} = diag(G_ii/2) G^{-1} = gram_ii X / (2 d)
    cartan_inv = tuple(
        tuple(Q(gram[i][i] * x, 2 * d) for x in row) for i, row in enumerate(X)
    )
    length_den = math.lcm(*(form[j][j].denominator for j in range(l)))
    simple_lengths = tuple(int(form[j][j] * length_den) for j in range(l))

    return RootSystem(
        type=t,
        cartan=tuple(tuple(row) for row in cartan),
        form=form,
        simple_roots=tuple(tuple(int(i == j) for j in range(l)) for i in range(l)),
        roots=tuple(roots),
        positive_roots=tuple(positives),
        psi=psi,
        marks=marks,
        coxeter_number=s,
        exponents=exps,
        r_coeffs=r_coeffs,
        epsilon_basis=eps,
        cartan_inv=cartan_inv,
        simple_lengths=simple_lengths,
        length_den=length_den,
        _root_set=frozenset(roots),
    )


def highest_root_marks(rs: RootSystem):
    """Highest root, its marks (with q_0 = 1 for alpha_0 = -psi) and Coxeter number."""
    return rs.psi, rs.marks, rs.coxeter_number


@dataclass(frozen=True)
class DualData:
    h_vectors: Dict[Root, Tuple[Q, ...]]
    epsilon_basis: Tuple[Tuple[Q, ...], ...]
    r_coeffs: Tuple[Q, ...]
    x0: Tuple[Q, ...]


def dual_data(rs: RootSystem) -> DualData:
    """H_alpha vectors, the basis dual to the simple roots, and x0 = sum eps_i.

    Everything is expressed in the H_{alpha_i} coordinate basis of the Cartan
    subalgebra, where H_{alpha} has coordinates equal to alpha's own root
    coordinates.
    """
    hvecs = {r: qvec(r) for r in rs.roots}
    x0 = rs.r_coeffs
    for i in range(rs.rank):
        if rs.pairing(rs.simple_roots[i], x0) != 1:
            raise InvariantViolation(f"alpha_{i + 1}(x0) != 1")
    if rs.pairing(rs.psi, x0) != rs.coxeter_number - 1:
        raise InvariantViolation("psi(x0) != s - 1")
    return DualData(hvecs, rs.epsilon_basis, rs.r_coeffs, x0)


def diagram_involution(rs: RootSystem) -> Tuple[int, ...]:
    """The permutation nu (1-based, as a tuple indexed 0..l-1) induced by sigma.

    Nontrivial exactly for A_l, D_odd and E6; identity otherwise.
    """
    t = rs.type
    l = t.rank
    nu = list(range(1, l + 1))
    if t.family == "A":
        nu = [l + 1 - i for i in range(1, l + 1)]
    elif t.family == "D" and l % 2 == 1:
        nu[l - 2], nu[l - 1] = l, l - 1
    elif t.family == "E" and l == 6:
        nu = [6, 2, 5, 4, 3, 1]
    return tuple(nu)
