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

from .rootcore import InvariantViolation, Root, RootSystem, integer_form

RAY_TOL = 1e-9


class TheoremCheckError(AssertionError):
    """A combinatorial identity asserted by the theory failed to verify."""


@dataclass(frozen=True)
class Bipartition:
    i1: Tuple[int, ...]  # 1-based node indices, contains node 1
    i2: Tuple[int, ...]

    def side(self, node: int) -> int:
        return 1 if node in self.i1 else 2


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


def _reflections(rs: RootSystem) -> np.ndarray:
    """R[j] is the simple reflection R_{alpha_{j+1}} as an int64 matrix on
    columns of root coordinates: it subtracts <root, alpha_j^vee> from entry j."""
    l = rs.rank
    R = np.tile(np.eye(l, dtype=np.int64), (l, 1, 1))
    R[np.arange(l), np.arange(l), :] -= np.array(rs.cartan, dtype=np.int64).T
    return R


def _word_array(R: np.ndarray, word: Sequence[int]) -> np.ndarray:
    """Matrix of a reflection word (1-based indices, leftmost acts last)."""
    M = np.eye(R.shape[1], dtype=np.int64)
    for j in word:
        M = M @ R[j - 1]
    return M


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
    M = _word_array(_reflections(rs), word)
    M.flags.writeable = False
    if np.linalg.matrix_power(M, rs.coxeter_number)[:, 0].tolist() != list(rs.simple_roots[0]):
        raise TheoremCheckError("gamma^s != identity on probe root")
    return CoxeterElement(word, M)


def inversion_set(rs: RootSystem, word: Sequence[int]) -> FrozenSet[Root]:
    """Positive roots sent to negative roots by the word's Weyl element."""
    return _inversions(rs, _word_array(_reflections(rs), word))


def _inversions(rs: RootSystem, M: np.ndarray) -> FrozenSet[Root]:
    heights = (np.array(rs.positive_roots, dtype=np.int64) @ M.T).sum(axis=1)
    return frozenset(compress(rs.positive_roots, (heights < 0).tolist()))


def _tau_word(bip: Bipartition, i: int) -> Tuple[int, ...]:
    return tuple(sorted(bip.i1 if i % 2 == 1 else bip.i2))


def kostant_chain(rs: RootSystem, n: int, bip: Bipartition | None = None):
    """Blocks tau^{(0)}Pi_1, tau^{(-1)}Pi_2, ... whose union is Lambda(tau^{(n)}).

    Verifies the disjoint-union identity against an independent inversion-set
    computation and returns the list of blocks.
    """
    if bip is None:
        bip = bipartition(rs)
    s = rs.coxeter_number
    if not 1 <= n <= s:
        raise ValueError(f"n must be in 1..s = 1..{s}")
    R = _reflections(rs)
    # tau_i by i % 2, as the product of its commuting reflections in both orders
    tau = {p: _word_array(R, _tau_word(bip, p)) for p in (0, 1)}
    tau_rev = {p: _word_array(R, _tau_word(bip, p)[::-1]) for p in (0, 1)}

    # block j is tau^{(-(j-1))} Pi_j, with tau^{(-(j-1))} = tau_1 tau_2 ... tau_{j-1}
    blocks: List[FrozenSet[Root]] = []
    inv_prefix = np.eye(rs.rank, dtype=np.int64)
    for j in range(1, n + 1):
        pi_j = _simple_columns(rs, bip.i1 if j % 2 == 1 else bip.i2)
        blocks.append(_as_roots(inv_prefix @ pi_j))
        inv_prefix = inv_prefix @ tau_rev[j % 2]

    # tau^{(n)} = tau_n ... tau_1, an independent product for the inversion set
    tau_n = np.eye(rs.rank, dtype=np.int64)
    for i in range(1, n + 1):
        tau_n = tau[i % 2] @ tau_n

    union: set = set()
    total = 0
    for b in blocks:
        total += len(b)
        union |= b
    lam = _inversions(rs, tau_n)
    if total != len(union) or union != lam:
        raise TheoremCheckError(
            f"Kostant chain mismatch for n={n}: blocks give {len(union)} roots "
            f"(sum {total}), inversion set has {len(lam)}"
        )
    return blocks


@dataclass(frozen=True)
class CoxeterPlaneDiagram:
    coord: Dict[Root, complex]
    ray_angles: Tuple[float, ...]              # angle of d_1 .. d_{2s}, clockwise
    assignment: Tuple[FrozenSet[Root], ...]    # R(d_1) .. R(d_{2s})
    wheel_radii: Tuple[float, ...]
    sector_offset: int = 0

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


def circular_cluster(angles: np.ndarray, tol: float) -> List[List[int]]:
    """Index groups of angles in [0, 2 pi), as ``_cluster`` but merged through 0."""
    groups = _cluster(angles, tol)
    if len(groups) > 1:
        wrap = (2 * np.pi - angles[groups[-1][-1]]) + angles[groups[0][0]]
        if wrap <= tol:
            groups[0] = groups.pop() + groups[0]
    return groups


def mean_angle(angles: np.ndarray) -> float:
    """Mean of one cluster of angles in [0, 2 pi), also when it wraps through 0."""
    if np.max(angles) - np.min(angles) > np.pi:
        angles = (angles + np.pi) % (2 * np.pi) - np.pi
    return float(np.mean(angles)) % (2 * np.pi)


def coxeter_plane(
    rs: RootSystem,
    bip: Bipartition | None = None,
    sector_offset: int = 0,
    ray_tol: float = RAY_TOL,
) -> CoxeterPlaneDiagram:
    """Project all roots onto the plane of the Coxeter element's m_1 = 1 eigenvalue.

    coord(gamma a) = e^{-2 pi i/s} coord(a); the global phase puts the Pi_2 roots
    on angle 0 (ray d_1 when sector_offset = 0) and rays are labeled clockwise.
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
    if abs(vals[k] - target) > 1e-8:
        raise ArithmeticError(f"eigenplane for e^(-2 pi i/s) not found: {vals}")
    u = vecs[:, k]

    coord = {r: complex(np.dot(u, np.array(r, dtype=float))) for r in rs.roots}

    # rotate so Pi_2 roots sit on angle 0; they must share one argument
    pi2 = [rs.simple_roots[i - 1] for i in bip.i2]
    phase = coord[pi2[0]] / abs(coord[pi2[0]])
    u = u / phase
    coord = {r: c / phase for r, c in coord.items()}
    args = [np.angle(coord[b]) for b in pi2]
    if max(args) - min(args) > 1e-9:
        raise TheoremCheckError(f"Pi_2 roots do not share one ray: args={args}")

    # verify the equivariance coord(gamma a) = e^{-2 pi i /s} coord(a)
    rot = np.exp(-2j * np.pi / s)
    images = np.array(rs.roots, dtype=np.int64) @ gamma.matrix.T
    for r, img in zip(rs.roots, map(tuple, images.tolist())):
        if abs(coord[img] - rot * coord[r]) > 1e-8 * max(1.0, abs(coord[r])):
            raise ArithmeticError("projection is not gamma-equivariant")

    # cluster root arguments into rays (circularly) and check there are 2s of them
    angles = np.array([np.angle(coord[r]) for r in rs.roots]) % (2 * np.pi)
    ray_groups = circular_cluster(angles, ray_tol)
    if len(ray_groups) != 2 * s:
        raise TheoremCheckError(
            f"expected 2s = {2*s} singular directions, found {len(ray_groups)}"
        )
    ray_angle_list = sorted(mean_angle(angles[g]) for g in ray_groups)
    gaps = np.diff(ray_angle_list + [ray_angle_list[0] + 2 * np.pi])
    if np.max(np.abs(gaps - np.pi / s)) > ray_tol:
        raise TheoremCheckError(f"ray gaps deviate from pi/s: {gaps}")

    # label d_1.. d_{2s} clockwise from angle 0 (shifted by the sector offset)
    ray_angles = tuple(
        float((-(sector_offset + i) * np.pi / s) % (2 * np.pi)) for i in range(2 * s)
    )
    diffs = np.abs(angles[:, None] - np.array(ray_angles)[None, :])
    diffs = np.minimum(diffs, 2 * np.pi - diffs)
    nearest = np.argmin(diffs, axis=1)
    off = diffs[np.arange(len(angles)), nearest] > ray_tol
    if off.any():
        angle = angles[np.argmax(off)]
        raise TheoremCheckError(f"root angle {angle} not on any expected ray")
    assign: List[set] = [set() for _ in range(2 * s)]
    for r, i in zip(rs.roots, nearest.tolist()):
        assign[i].add(r)

    radii = sorted(abs(c) for c in coord.values())
    wheel_groups = _cluster(radii, ray_tol * max(radii))
    wheels = tuple(sorted(float(np.mean([radii[i] for i in g])) for g in wheel_groups))

    return CoxeterPlaneDiagram(
        coord=coord,
        ray_angles=ray_angles,
        assignment=tuple(frozenset(a) for a in assign),
        wheel_radii=wheels,
        sector_offset=sector_offset,
    )


@dataclass(frozen=True)
class SingularDirectionReport:
    type_name: str
    num_rays: int
    head: FrozenSet[Root]      # R(d_1) = Pi_2
    tail: FrozenSet[Root]      # R(d_s) = Pi_1
    per_ray_orthogonal: bool
    positive_sector_is_delta_plus: bool
    fundamental_domain_ok: bool


def singular_directions(
    rs: RootSystem, bip: Bipartition, plane: CoxeterPlaneDiagram
) -> SingularDirectionReport:
    """Verify the ray assignments predicted by the head-and-tail theorem.

    R(d_1) = Pi_2, R(d_{2k+1}) = gamma^k(Pi_2), R(d_{2k+2}) = gamma^{k+1}(-Pi_1),
    R(d_{s-1}) = gamma^{-1}(-Pi_2), R(d_s) = Pi_1, and the positive sector is
    exactly Delta_+.  Any mismatch raises TheoremCheckError.
    """
    if plane.sector_offset != 0:
        raise ValueError("theorem checks require a plane with sector_offset = 0")
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
    pos_ok = union == set(rs.positive_roots)
    if not pos_ok:
        raise TheoremCheckError("positive sector union is not Delta_+")

    # roots on one ray are pairwise orthogonal, checked with the form scaled to integers
    rays = [sorted(a) for a in plane.assignment]
    ray_of = np.repeat(np.arange(2 * s), [len(r) for r in rays])
    on_rays = np.array([r for ray in rays for r in ray], dtype=np.int64)
    gram = on_rays @ integer_form(rs)[0] @ on_rays.T
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
    fd_ok = len(dom) == rs.rank and all(len(dom & o) == 1 for o in orbits)
    if not fd_ok:
        raise TheoremCheckError("R(d_1) u R(d_2) is not a fundamental domain")

    return SingularDirectionReport(
        type_name=str(rs.type),
        num_rays=2 * s,
        head=plane.assignment[0],
        tail=plane.assignment[s - 1],
        per_ray_orthogonal=True,
        positive_sector_is_delta_plus=pos_ok,
        fundamental_domain_ok=fd_ok,
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


def gamma_orbits(rs: RootSystem, bip: Bipartition | None = None) -> List[FrozenSet[Root]]:
    """The l gamma-orbits on Delta, each of size s."""
    if bip is None:
        bip = bipartition(rs)
    return _gamma_orbits(rs, coxeter_element(rs, bip))
