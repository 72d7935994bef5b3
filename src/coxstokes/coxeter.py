"""Coxeter-element combinatorics and the enhanced Coxeter plane.

The bipartition 2-colors the Dynkin diagram, gamma = tau_2 tau_1 is the
associated Coxeter element, and the plane carries the 2s singular-direction
rays with their root assignments R(d_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .rootcore import (
    InvariantViolation,
    Root,
    RootSystem,
    reflection_matrices,
    word_matrix,
)

RAY_TOL = 1e-9
# gamma's eigenvalue e^{-2 pi i/s} is found within EIGENPLANE_TOL, and the projection
# is gamma-equivariant within EQUIVARIANCE_TOL relative to max(1, |coord(a)|)
EIGENPLANE_TOL = 1e-8
EQUIVARIANCE_TOL = 1e-8


class TheoremCheckError(AssertionError):
    """A combinatorial identity asserted by the theory failed to verify."""


@dataclass(frozen=True)
class Bipartition:
    i1: Tuple[int, ...]  # 1-based node indices, contains node 1
    i2: Tuple[int, ...]


def bipartition(rs: RootSystem) -> Bipartition:
    """Proper 2-coloring of the Dynkin diagram; node 1 lands in I1.

    Within each class the simple roots are mutually orthogonal (tree
    2-coloring), and the partition is unique up to swapping the labels.
    """
    l = rs.rank
    color = {0: 1}
    frontier = [0]
    seen = {0}
    while frontier:
        nxt = []
        for i in frontier:
            for j in range(l):
                if j != i and rs.cartan[i][j] != 0 and j not in seen:
                    color[j] = 3 - color[i]
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    if len(seen) != l:
        raise InvariantViolation("Dynkin diagram not connected")
    i1 = tuple(i + 1 for i in range(l) if color[i] == 1)
    i2 = tuple(i + 1 for i in range(l) if color[i] == 2)
    for part in (i1, i2):
        for a in part:
            for b in part:
                if a != b and rs.cartan[a - 1][b - 1] != 0:
                    raise InvariantViolation(f"nodes {a} and {b} share a color but are joined")
    return Bipartition(i1, i2)


def _as_roots(cols: np.ndarray) -> FrozenSet[Root]:
    """The columns of an integer matrix as a set of root tuples."""
    return frozenset(map(tuple, cols.T.tolist()))


def _simple_columns(rs: RootSystem, nodes: Sequence[int]) -> np.ndarray:
    """The simple roots of the given 1-based nodes as the columns of a matrix."""
    return np.eye(rs.rank, dtype=np.int64)[:, [i - 1 for i in nodes]]


@dataclass(frozen=True, eq=False)
class CoxeterElement:
    word: Tuple[int, ...]     # Pi_2 block then Pi_1 block
    matrix: np.ndarray        # int64 action on columns of root coordinates

    def apply(self, root: Root) -> Root:
        return tuple((self.matrix @ np.array(root, dtype=np.int64)).tolist())


def coxeter_element(rs: RootSystem, bip: Bipartition) -> CoxeterElement:
    """gamma = tau_2 tau_1 for the given bipartition."""
    word = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    M = word_matrix(reflection_matrices(rs.cartan), word)
    M.flags.writeable = False
    if np.linalg.matrix_power(M, rs.coxeter_number)[:, 0].tolist() != list(rs.simple_roots[0]):
        raise TheoremCheckError("gamma^s != identity on probe root")
    return CoxeterElement(word, M)


def inversion_set(rs: RootSystem, word: Sequence[int]) -> FrozenSet[Root]:
    """Positive roots sent to negative roots by the word's Weyl element."""
    return _inversions(rs, word_matrix(reflection_matrices(rs.cartan), word))


def _inversions(rs: RootSystem, M: np.ndarray) -> FrozenSet[Root]:
    heights = (np.array(rs.positive_roots, dtype=np.int64) @ M.T).sum(axis=1)
    return frozenset(compress(rs.positive_roots, (heights < 0).tolist()))


def _tau_word(bip: Bipartition, i: int) -> Tuple[int, ...]:
    return tuple(sorted(bip.i1 if i % 2 == 1 else bip.i2))


def kostant_chain(rs: RootSystem, n: int, bip: Bipartition | None = None):
    """Blocks tau^{(0)}Pi_1, tau^{(-1)}Pi_2, ... whose union is Lambda(tau^{(n)}).

    Verifies the disjoint-union identity at every prefix m <= n against an
    independent inversion-set computation and returns the list of n blocks.
    """
    if bip is None:
        bip = bipartition(rs)
    s = rs.coxeter_number
    if not 1 <= n <= s:
        raise ValueError(f"n must be in 1..s = 1..{s}")
    R = reflection_matrices(rs.cartan)
    # tau_i by i % 2, as the product of its commuting reflections in both orders
    tau = {p: word_matrix(R, _tau_word(bip, p)) for p in (0, 1)}
    tau_rev = {p: word_matrix(R, _tau_word(bip, p)[::-1]) for p in (0, 1)}

    # block m is tau^{(-(m-1))} Pi_m, with tau^{(-(m-1))} = tau_1 tau_2 ... tau_{m-1};
    # tau^{(m)} = tau_m ... tau_1 is an independent product for the inversion set
    blocks: List[FrozenSet[Root]] = []
    union: set = set()
    total = 0
    inv_prefix = np.eye(rs.rank, dtype=np.int64)
    tau_m = np.eye(rs.rank, dtype=np.int64)
    for m in range(1, n + 1):
        pi_m = _simple_columns(rs, bip.i1 if m % 2 == 1 else bip.i2)
        blocks.append(_as_roots(inv_prefix @ pi_m))
        inv_prefix = inv_prefix @ tau_rev[m % 2]
        tau_m = tau[m % 2] @ tau_m
        total += len(blocks[-1])
        union |= blocks[-1]
        lam = _inversions(rs, tau_m)
        if total != len(union) or union != lam:
            raise TheoremCheckError(
                f"Kostant chain mismatch for n={m}: blocks give {len(union)} roots "
                f"(sum {total}), inversion set has {len(lam)}"
            )
    return blocks


@dataclass(frozen=True)
class CoxeterPlaneDiagram:
    coord: Dict[Root, complex]
    ray_angles: Tuple[float, ...]              # angle of d_1 .. d_{2s}, clockwise
    assignment: Tuple[FrozenSet[Root], ...]    # R(d_1) .. R(d_{2s})
    wheel_radii: Tuple[float, ...]

    @property
    def num_rays(self) -> int:
        return len(self.ray_angles)


def _cluster(values: Sequence[float], tol: float) -> List[List[int]]:
    """Index groups of values whose sorted neighbours lie within tol."""
    order = np.argsort(values)
    groups = [[int(order[0])]]
    for i in order[1:]:
        if values[i] - values[groups[-1][-1]] <= tol:
            groups[-1].append(int(i))
        else:
            groups.append([int(i)])
    return groups


def ray_index(angles: np.ndarray, s: int, offset: float, tol: float) -> np.ndarray:
    """k mod 2s of the ray offset + k pi/s nearest each angle, or -1 for an
    angle farther than tol from it."""
    x = (np.asarray(angles, dtype=float) - offset) * (s / np.pi)
    k = np.rint(x)
    off = np.abs(x - k) * (np.pi / s) > tol
    return np.where(off, -1, k.astype(np.int64) % (2 * s))


def coxeter_plane(rs: RootSystem, bip: Bipartition | None = None) -> CoxeterPlaneDiagram:
    """Project all roots onto the plane of the Coxeter element's m_1 = 1 eigenvalue.

    coord(gamma a) = e^{-2 pi i/s} coord(a); the global phase puts the Pi_2 roots
    on angle 0 (ray d_1) and rays are labeled clockwise.
    """
    if rs.rank < 2:
        raise ValueError("rank > 1 required")
    if bip is None:
        bip = bipartition(rs)
    s = rs.coxeter_number
    gamma = coxeter_element(rs, bip)
    vals, vecs = np.linalg.eig(gamma.matrix.T.astype(np.float64))
    target = np.exp(-2j * np.pi / s)
    k = int(np.argmin(np.abs(vals - target)))
    if abs(vals[k] - target) > EIGENPLANE_TOL:
        raise ArithmeticError(f"eigenplane for e^(-2 pi i/s) not found: {vals}")
    u = vecs[:, k]

    coord = {r: complex(np.dot(u, np.array(r, dtype=float))) for r in rs.roots}

    # the global phase puts the first Pi_2 root on angle 0
    pi2 = [rs.simple_roots[i - 1] for i in bip.i2]
    phase = coord[pi2[0]] / abs(coord[pi2[0]])
    coord = {r: c / phase for r, c in coord.items()}

    # verify the equivariance coord(gamma a) = e^{-2 pi i /s} coord(a)
    rot = np.exp(-2j * np.pi / s)
    images = np.array(rs.roots, dtype=np.int64) @ gamma.matrix.T
    for r, img in zip(rs.roots, map(tuple, images.tolist())):
        if abs(coord[img] - rot * coord[r]) > EQUIVARIANCE_TOL * max(1.0, abs(coord[r])):
            raise ArithmeticError("projection is not gamma-equivariant")

    # each root lies on a ray k pi/s; d_{i+1}, clockwise from angle 0, is ray k = -i
    angles = np.angle([coord[r] for r in rs.roots])
    ray = ray_index(angles, s, 0.0, RAY_TOL / 2)
    if (ray < 0).any():
        angle = angles[np.argmax(ray < 0)] % (2 * np.pi)
        raise TheoremCheckError(f"root angle {angle} not on any expected ray")
    assign: List[set] = [set() for _ in range(2 * s)]
    for r, k in zip(rs.roots, ray.tolist()):
        assign[-k % (2 * s)].add(r)
    found = sum(1 for a in assign if a)
    if found != 2 * s:
        raise TheoremCheckError(f"expected 2s = {2*s} singular directions, found {found}")
    if not assign[0].issuperset(pi2):
        raise TheoremCheckError(f"Pi_2 roots not all on d_1: {sorted(set(pi2) - assign[0])}")
    ray_angles = tuple(float((-i * np.pi / s) % (2 * np.pi)) for i in range(2 * s))

    radii = sorted(abs(c) for c in coord.values())
    wheel_groups = _cluster(radii, RAY_TOL * max(radii))
    wheels = tuple(sorted(float(np.mean([radii[i] for i in g])) for g in wheel_groups))

    return CoxeterPlaneDiagram(
        coord=coord,
        ray_angles=ray_angles,
        assignment=tuple(frozenset(a) for a in assign),
        wheel_radii=wheels,
    )


@dataclass(frozen=True)
class SingularDirectionReport:
    type_name: str
    num_rays: int
    head: FrozenSet[Root]      # R(d_1) = Pi_2
    tail: FrozenSet[Root]      # R(d_s) = Pi_1


def singular_directions(
    rs: RootSystem, bip: Bipartition, plane: CoxeterPlaneDiagram
) -> SingularDirectionReport:
    """Verify the ray assignments predicted by the head-and-tail theorem.

    R(d_1) = Pi_2, R(d_{2k+1}) = gamma^k(Pi_2), R(d_{2k+2}) = gamma^{k+1}(-Pi_1),
    R(d_{s-1}) = gamma^{-1}(-Pi_2), R(d_s) = Pi_1, and the positive sector is
    exactly Delta_+.  Any mismatch raises TheoremCheckError.
    """
    s = rs.coxeter_number
    gamma = coxeter_element(rs, bip)
    G = gamma.matrix
    pi1 = _simple_columns(rs, bip.i1)
    pi2 = _simple_columns(rs, bip.i2)

    expected: List[FrozenSet[Root]] = [frozenset()] * (2 * s)
    odd, even = pi2, G @ -pi1
    for k in range(s):
        expected[2 * k] = _as_roots(odd)
        expected[2 * k + 1] = _as_roots(even)
        odd, even = G @ odd, G @ even

    for i in range(2 * s):
        if plane.assignment[i] != expected[i]:
            raise TheoremCheckError(
                f"R(d_{i+1}) mismatch: plane has {sorted(plane.assignment[i])}, "
                f"theorem predicts {sorted(expected[i])}"
            )

    if plane.assignment[s - 1] != _as_roots(pi1):
        raise TheoremCheckError("R(d_s) != Pi_1")
    # gamma^{-1} = gamma^{s-1}, exactly in integers
    if plane.assignment[s - 2] != _as_roots(np.linalg.matrix_power(G, s - 1) @ -pi2):
        raise TheoremCheckError("R(d_{s-1}) != gamma^{-1}(-Pi_2)")

    union: set = set()
    for i in range(s):
        union |= plane.assignment[i]
    if union != set(rs.positive_roots):
        raise TheoremCheckError("positive sector union is not Delta_+")

    # roots on one ray are pairwise orthogonal, checked with the form scaled to integers
    rays = [sorted(a) for a in plane.assignment]
    ray_of = np.repeat(np.arange(2 * s), [len(r) for r in rays])
    on_rays = np.array([r for ray in rays for r in ray], dtype=np.int64)
    gram = on_rays @ rs.integer_form[0] @ on_rays.T
    same_ray = ray_of[:, None] == ray_of[None, :]
    np.fill_diagonal(same_ray, False)
    bad = np.argwhere(same_ray & (gram != 0))
    if len(bad):
        a, b = bad[0]
        raise TheoremCheckError(
            f"roots on d_{ray_of[a]+1} not orthogonal: "
            f"{tuple(on_rays[a].tolist())}, {tuple(on_rays[b].tolist())}"
        )

    # R(d_1) u R(d_2) is a fundamental domain for the gamma-orbits
    dom = set(plane.assignment[0]) | set(plane.assignment[1])
    orbits = _gamma_orbits(rs, gamma)
    if len(dom) != rs.rank or any(len(dom & o) != 1 for o in orbits):
        raise TheoremCheckError("R(d_1) u R(d_2) is not a fundamental domain")

    return SingularDirectionReport(
        type_name=str(rs.type),
        num_rays=2 * s,
        head=plane.assignment[0],
        tail=plane.assignment[s - 1],
    )


def _gamma_orbits(rs: RootSystem, gamma: CoxeterElement) -> List[FrozenSet[Root]]:
    index = {r: i for i, r in enumerate(rs.roots)}
    images = np.array(rs.roots, dtype=np.int64) @ gamma.matrix.T
    perm = [index[r] for r in map(tuple, images.tolist())]
    seen = [False] * len(perm)
    orbits = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        orb, i = [], start
        while not seen[i]:
            seen[i] = True
            orb.append(rs.roots[i])
            i = perm[i]
        orbits.append(frozenset(orb))
    s = rs.coxeter_number
    if len(orbits) != rs.rank or any(len(o) != s for o in orbits):
        raise TheoremCheckError(
            f"gamma-orbit sizes {sorted(len(o) for o in orbits)}, expected {rs.rank} of size {s}"
        )
    return orbits
