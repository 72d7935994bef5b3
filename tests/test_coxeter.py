import dataclasses
from fractions import Fraction as Q

import numpy as np
import pytest

from coxstokes import coxeter
from coxstokes.coxeter import (
    TheoremCheckError,
    Bipartition,
    bipartition,
    coxeter_element,
    coxeter_plane,
    gamma_orbits,
    inversion_set,
    kostant_chain,
    ray_index,
    singular_directions,
)
from coxstokes.rootcore import build_root_system, reflection_matrices, word_matrix

LISTED = [
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


def test_bipartition_examples():
    a3 = bipartition(build_root_system("A3"))
    assert a3.i1 == (1, 3) and a3.i2 == (2,)
    d4 = bipartition(build_root_system("D4"))
    assert d4.i2 == (2,)  # center node alone in its class
    e8 = bipartition(build_root_system("E8"))
    assert sorted((len(e8.i1), len(e8.i2))) == [4, 4]


@pytest.mark.parametrize("name", LISTED)
def test_bipartition_orthogonality(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    for part in (bip.i1, bip.i2):
        roots = [rs.simple_roots[i - 1] for i in part]
        for a in roots:
            for b in roots:
                if a != b:
                    assert rs.inner(a, b) == 0


def test_inversion_set_a2():
    rs = build_root_system("A2")
    # gamma = R_{a2} R_{a1}
    assert inversion_set(rs, (2, 1)) == frozenset({(1, 0), (1, 1)})
    assert inversion_set(rs, ()) == frozenset()
    # longest element of A2
    assert inversion_set(rs, (1, 2, 1)) == frozenset({(1, 0), (0, 1), (1, 1)})


@pytest.mark.parametrize("name", LISTED)
def test_coxeter_element_order_and_length(name):
    rs = build_root_system(name)
    gamma = coxeter_element(rs, bipartition(rs))
    s = rs.coxeter_number
    for r in rs.simple_roots:
        cur = r
        for k in range(1, s + 1):
            cur = gamma.apply(cur)
            if cur == r:
                assert k == s or s % k == 0
        assert cur == r
    assert len(inversion_set(rs, gamma.word)) == rs.rank


@pytest.mark.parametrize("name", LISTED)
def test_kostant_chain_all_n(name):
    # one call with n = s verifies the disjoint union at every prefix
    rs = build_root_system(name)
    bip = bipartition(rs)
    assert len(kostant_chain(rs, rs.coxeter_number, bip)) == rs.coxeter_number
    with pytest.raises(ValueError):
        kostant_chain(rs, 0, bip)
    with pytest.raises(ValueError):
        kostant_chain(rs, rs.coxeter_number + 1, bip)


@pytest.mark.parametrize("name,m", [("A4", 3), ("D4", 4), ("E6", 7)])
def test_kostant_chain_checks_every_prefix(name, m, monkeypatch):
    # an inversion set wrong only at prefix m: the chain to m - 1 passes, and the
    # chain to s fails there, naming m
    rs = build_root_system(name)
    bip = bipartition(rs)
    _, chain = reference_kostant_blocks(rs, bip, m)
    tau_m = word_matrix(reflection_matrices(rs.cartan), chain)
    real = coxeter._inversions

    def wrong_at_m(rs_, M):
        lam = real(rs_, M)
        return lam - {min(lam)} if np.array_equal(M, tau_m) else lam

    monkeypatch.setattr(coxeter, "_inversions", wrong_at_m)
    assert len(kostant_chain(rs, m - 1, bip)) == m - 1
    with pytest.raises(TheoremCheckError, match=rf"mismatch for n={m}:"):
        kostant_chain(rs, rs.coxeter_number, bip)


def test_kostant_chain_examples():
    rs = build_root_system("A2")
    bip = bipartition(rs)
    # n = 1: Lambda(tau_1) = Pi_1
    (b1,) = kostant_chain(rs, 1, bip)
    assert b1 == frozenset({(1, 0)})
    # n = 2: Lambda(gamma) = Pi_1 u gamma^{-1}(-Pi_2)
    b1, b2 = kostant_chain(rs, 2, bip)
    assert b1 | b2 == frozenset({(1, 0), (1, 1)})
    assert b1 | b2 == inversion_set(rs, coxeter_element(rs, bip).word)


@pytest.mark.parametrize("name", LISTED)
def test_plane_rays_and_theorem(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    s = rs.coxeter_number
    assert plane.num_rays == 2 * s
    gaps = np.diff(sorted(plane.ray_angles) + [min(plane.ray_angles) + 2 * np.pi])
    assert np.max(np.abs(gaps - np.pi / s)) < 1e-9
    report = singular_directions(rs, bip, plane)
    pi1 = frozenset(rs.simple_roots[i - 1] for i in bip.i1)
    pi2 = frozenset(rs.simple_roots[i - 1] for i in bip.i2)
    assert report.head == pi2 and report.tail == pi1


def test_a2_ray_assignments():
    rs = build_root_system("A2")
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    assert plane.assignment[0] == frozenset({(0, 1)})
    assert plane.assignment[1] == frozenset({(1, 1)})
    assert plane.assignment[2] == frozenset({(1, 0)})
    # Card R(d_i) = l/2 = 1 on every ray for odd s
    assert all(len(a) == 1 for a in plane.assignment)


def test_e8_spokes_and_wheels():
    rs = build_root_system("E8")
    plane = coxeter_plane(rs, bipartition(rs))
    assert plane.num_rays == 60
    assert len(plane.wheel_radii) == 8


def test_a2_wheel_count():
    plane = coxeter_plane(build_root_system("A2"), None)
    assert len(plane.wheel_radii) == 1


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "D4", "G2"])
def test_lambda_gamma_three_ways(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    s = rs.coxeter_number
    lam1 = inversion_set(rs, gamma.word)
    b = kostant_chain(rs, 2, bip)
    lam2 = frozenset(b[0] | b[1])
    plane = coxeter_plane(rs, bip)
    lam3 = frozenset(plane.assignment[s - 2] | plane.assignment[s - 1])
    assert lam1 == lam2 == lam3


def test_gamma_skips_one_ray():
    rs = build_root_system("B3")
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    plane = coxeter_plane(rs, bip)
    n = plane.num_rays
    for i in range(n):
        img = frozenset(gamma.apply(r) for r in plane.assignment[i])
        assert img == plane.assignment[(i + 2) % n]


@pytest.mark.parametrize("name", ["A4", "C3", "E6"])
def test_orbit_structure(name):
    rs = build_root_system(name)
    orbits = gamma_orbits(rs)
    assert len(orbits) == rs.rank
    assert all(len(o) == rs.coxeter_number for o in orbits)


def test_swapped_bipartition_also_passes():
    # the partition is unique up to labels; both labelings verify their own plane
    rs = build_root_system("A3")
    bip = bipartition(rs)
    swapped = Bipartition(bip.i2, bip.i1)
    plane = coxeter_plane(rs, swapped)
    report = singular_directions(rs, swapped, plane)
    assert report.head == frozenset(rs.simple_roots[i - 1] for i in swapped.i2)


def test_wrong_bipartition_fails():
    # negative control: a non-orthogonal "partition" must break the checks
    rs = build_root_system("A3")
    bad = Bipartition((1, 2), (3,))
    with pytest.raises((TheoremCheckError, AssertionError, ArithmeticError)):
        plane = coxeter_plane(rs, bad)
        singular_directions(rs, bad, plane)


def test_mismatched_bipartition_fails():
    # plane built for one labeling, theorem checks demanded for the other
    rs = build_root_system("A2")
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    swapped = Bipartition(bip.i2, bip.i1)
    with pytest.raises(TheoremCheckError):
        singular_directions(rs, swapped, plane)


@pytest.mark.parametrize("name", LISTED)
def test_both_labelings_give_valid_planes(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    for lab in (bip, Bipartition(bip.i2, bip.i1)):
        plane = coxeter_plane(rs, lab)
        assert plane.num_rays == 2 * rs.coxeter_number
        singular_directions(rs, lab, plane)


# -- tuple reference for the integer-matrix Weyl combinatorics ----------------


def apply_word(rs, word, root):
    """Apply a reflection word (1-based indices, leftmost acts last), one tuple at a time."""
    for j in reversed(word):
        c = sum(root[i] * rs.cartan[i][j - 1] for i in range(rs.rank))
        root = root[: j - 1] + (root[j - 1] - c,) + root[j:]
    return root


def reference_inversion_set(rs, word):
    return frozenset(b for b in rs.positive_roots if sum(apply_word(rs, word, b)) < 0)


def reference_kostant_blocks(rs, bip, n):
    def tau_word(i):
        return tuple(sorted(bip.i1 if i % 2 == 1 else bip.i2))

    blocks = []
    for j in range(1, n + 1):
        inverse = tuple(c for i in range(1, j) for c in reversed(tau_word(i)))
        pi_j = [rs.simple_roots[i - 1] for i in (bip.i1 if j % 2 == 1 else bip.i2)]
        blocks.append(frozenset(apply_word(rs, inverse, b) for b in pi_j))
    chain = tuple(c for i in range(n, 0, -1) for c in tau_word(i))
    return blocks, chain


@pytest.mark.parametrize("name", LISTED)
def test_kostant_chain_and_inversion_set_match_tuple_reference(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    assert gamma.matrix.dtype == np.int64
    for e in np.eye(rs.rank, dtype=int).tolist():
        assert gamma.apply(tuple(e)) == apply_word(rs, gamma.word, tuple(e))
    full = kostant_chain(rs, rs.coxeter_number, bip)
    for n in range(1, rs.coxeter_number + 1):
        blocks, chain = reference_kostant_blocks(rs, bip, n)
        assert full[:n] == blocks
        lam = inversion_set(rs, chain)
        assert lam == reference_inversion_set(rs, chain) == frozenset().union(*blocks)


def test_moved_root_fails_theorem_check():
    rs = build_root_system("D4")
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    assignment = list(plane.assignment)
    root = min(assignment[0])
    assignment[0] = assignment[0] - {root}
    assignment[2] = assignment[2] | {root}
    moved = dataclasses.replace(plane, assignment=tuple(assignment))
    with pytest.raises(TheoremCheckError, match=r"R\(d_1\) mismatch"):
        singular_directions(rs, bip, moved)


def test_non_orthogonal_ray_fails_theorem_check():
    # A3: d_2 carries {a1 + a2, a2 + a3}, orthogonal only while (a1, a3) = 0
    rs = build_root_system("A3")
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    form = [list(row) for row in rs.form]
    form[0][2] = form[2][0] = Q(-1, 3)
    skewed = dataclasses.replace(rs, form=tuple(tuple(row) for row in form))
    with pytest.raises(TheoremCheckError, match=r"d_2 not orthogonal: \(0, 1, 1\), \(1, 1, 0\)"):
        singular_directions(skewed, bip, plane)


def test_ray_index_bound_and_wrap_around():
    s, tol = 3, 1e-9
    step = np.pi / s
    # exact rays, including k = 0 approached from below 2 pi and from negative angles
    angles = np.array([0.0, step, 5 * step, 2 * np.pi, -step, -6 * step, 7 * step])
    assert ray_index(angles, s, 0.0, tol).tolist() == [0, 1, 5, 0, 5, 0, 1]
    # within the bound on both sides of a ray, through 0 and 2 pi
    near = np.array([tol / 2, -tol / 2, 2 * np.pi - tol / 2, -2 * np.pi + tol / 2])
    assert ray_index(near, s, 0.0, tol).tolist() == [0, 0, 0, 0]
    # beyond it on both sides
    far = np.array([2 * tol, -2 * tol, 2 * np.pi - 2 * tol, step + 2 * tol, -step - 2 * tol])
    assert ray_index(far, s, 0.0, tol).tolist() == [-1] * 5
    # an offset moves every ray; a negative angle near offset - pi/s is ray 2s - 1
    off = 0.3
    assert ray_index(np.array([off, off - step + tol / 2, off - 4 * tol]), s, off, tol).tolist() \
        == [0, 2 * s - 1, -1]
