"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
All tolerances are fixed here, not configurable.
"""

import random
import time
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest

from coxstokes.chevalley import build_chevalley
from coxstokes.coxeter import (
    bipartition,
    coxeter_element,
    coxeter_plane,
    inversion_set,
    kostant_chain,
    singular_directions,
)
from coxstokes.oracle import build_system, formal_solution, numerical_monodromy
from coxstokes.rootcore import build_root_system, diagram_involution
from coxstokes.scalars import mat_vec
from coxstokes.spectrum import ad_spectrum, build_e_plus, match_plane
from coxstokes.steinberg import (
    admissible_m,
    alcove_map,
    steinberg_section,
    stokes_from_asymptotics,
)
from coxstokes.weightrep import registered_representation
from rational_reference import mat_inv

LISTED_TYPES = [
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


def _report(num, desc):
    def deco(fn):
        def wrapped():
            try:
                fn()
            except BaseException:
                print(f"criterion {num:2d} [FAIL] {desc}")
                raise
            print(f"criterion {num:2d} [PASS] {desc}")

        wrapped.__name__ = fn.__name__
        return wrapped

    return deco


@_report(1, "2s singular directions with gap pi/s +- 1e-9, all listed types, < 10 s")
def test_criterion_1_singular_direction_count():
    t0 = time.monotonic()
    for name in LISTED_TYPES:
        rs = build_root_system(name)
        s = rs.coxeter_number
        plane = coxeter_plane(rs, bipartition(rs))
        assert plane.num_rays == 2 * s
        angles = sorted(plane.ray_angles)
        gaps = np.diff(angles + [angles[0] + 2 * np.pi])
        assert np.max(np.abs(gaps - np.pi / s)) <= 1e-9
    assert time.monotonic() - t0 < 10.0


@_report(2, "head-and-tail ray assignment and exact per-ray orthogonality")
def test_criterion_2_head_and_tail():
    for name in LISTED_TYPES:
        rs = build_root_system(name)
        bip = bipartition(rs)
        plane = coxeter_plane(rs, bip)
        # raises unless every gamma-orbit ray formula and the exact rational
        # orthogonality hold
        rep = singular_directions(rs, bip, plane)
        assert rep.head == frozenset(rs.simple_roots[i - 1] for i in bip.i2)
        assert rep.tail == frozenset(rs.simple_roots[i - 1] for i in bip.i1)


@_report(3, "Kostant chain identity for n = 1..s and |Lambda(gamma)| = l")
def test_criterion_3_kostant_chain():
    for name in LISTED_TYPES:
        rs = build_root_system(name)
        bip = bipartition(rs)
        # verifies the disjoint union at every prefix n <= s internally
        assert len(kostant_chain(rs, rs.coxeter_number, bip)) == rs.coxeter_number
        gamma = coxeter_element(rs, bip)
        assert len(inversion_set(rs, gamma.word)) == rs.rank


@_report(4, "E8 figure: 60 spokes, 8 wheels, with the 248-dim spectrum, < 60 s")
def test_criterion_4_e8_statistics():
    t0 = time.monotonic()
    rs = build_root_system("E8")
    plane = coxeter_plane(rs, bipartition(rs))
    assert plane.num_rays == 60
    assert len(plane.wheel_radii) == 8
    alg = build_chevalley("E8")
    sr = ad_spectrum(build_e_plus(alg))
    assert len(sr.rays) == 60
    assert sr.zero_multiplicity == 8
    assert time.monotonic() - t0 < 60.0


@_report(5, "ad(E_+) spectrum matches kappa * plane coords, dim g <= 52, < 1e-6")
def test_criterion_5_apposition_matching():
    for name in LISTED_TYPES:
        rs = build_root_system(name)
        if rs.rank + len(rs.roots) > 52:
            continue
        alg = build_chevalley(name)
        plane = coxeter_plane(rs, bipartition(rs))
        m = match_plane(ad_spectrum(build_e_plus(alg)), plane)
        assert m.max_residual < 1e-6


def _ext_trace(g, k):
    idx = list(combinations(range(g.shape[0]), k))
    return sum(np.linalg.det(g[np.ix_(r, r)]) for r in idx)


@_report(6, "chi(C^Gamma(t)) = t to 1e-10 for 50 random t in SL3 and SL4")
def test_criterion_6_cross_section_identity():
    rng = np.random.default_rng(2024)
    for name in ("A2", "A3"):
        rs = build_root_system(name)
        rep = registered_representation(name)
        bip = bipartition(rs)
        order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
        for _ in range(50):
            t = rng.normal(size=rs.rank) + 1j * rng.normal(size=rs.rank)
            C = steinberg_section(rep, bip, t).full()
            chi = [_ext_trace(C, j) for j in range(1, rs.rank + 1)]
            for pos, node in enumerate(order):
                assert abs(chi[node - 1] - t[pos]) < 1e-10


@_report(7, "A2, m = 0: t = (0,0) and eig(M0) = {e^{2 pi i mu(x0/3)}} to 1e-9")
def test_criterion_7_desk_numbers():
    sd = stokes_from_asymptotics("A2", [Q(0), Q(0)])
    assert np.max(np.abs(np.array(sd.t))) < 1e-10
    rep = registered_representation("A2")
    want = np.sort_complex(np.exp(2j * np.pi * rep.weight_values(sd.y)))
    got = np.sort_complex(np.linalg.eigvals(sd.m0))
    assert np.max(np.abs(want - got)) < 1e-9


@_report(8, "alcove equivalence exact on 100 random m per type; sigma filter")
def test_criterion_8_alcove_equivalence():
    for name in ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4"]:
        rs = build_root_system(name)
        rng = random.Random(name)
        for _ in range(100):
            m = tuple(Q(rng.randint(-12, 12), 6) for _ in range(rs.rank))
            pt = alcove_map(rs, m)  # asserts the two admissibility routes agree
            assert pt.admissible == admissible_m(rs, m)
    # sigma-fixed filtering for A_l / D5 / E6
    for name in ("A3", "D5", "E6"):
        rs = build_root_system(name)
        nu = diagram_involution(rs)
        rng = random.Random(name)
        hits = 0
        while hits < 10:
            raw = [Q(rng.randint(-6, 18), 12) for _ in range(rs.rank)]
            m = mat_vec(mat_inv(rs.form), raw)
            if not admissible_m(rs, m):
                continue
            hits += 1
            sym = tuple((m[i] + m[nu[i] - 1]) / 2 for i in range(rs.rank))
            if admissible_m(rs, sym):
                pt = alcove_map(rs, sym)
                assert pt.admissible and pt.sigma_fixed
            moved = next(i for i in range(rs.rank) if nu[i] != i + 1)
            asym = list(sym)
            asym[moved] += Q(1, 23)
            if admissible_m(rs, asym):
                pt = alcove_map(rs, asym)
                assert pt.admissible and not pt.sigma_fixed


@_report(9, "formal solution: sl3 order 5 residuals < 1e-9 and Lambda_0 = 0")
def test_criterion_9_formal_solution():
    for c, k, z in (
        ([1, 1, 1], [0, 0, 0], 1.0),
        ([1.0, 0.8, 0.8], [0, 1, 1], 1.5),
    ):
        fs = formal_solution(build_system(2, c, k, z), 5)
        assert fs.lambda0_norm < 1e-12
        assert all(r < 1e-9 for r in fs.residual_norms)


@_report(10, "numerical monodromy matches P0^{-s} (M0)^s char-poly, < 2 min")
def test_criterion_10_numerical_monodromy():
    t0 = time.monotonic()
    runs = [
        (2, [1, 1, 1], [0, 0, 0]),
        (2, [1, 1, 1], [0, 1, 1]),
        (3, [1.0, 0.8, 1.3, 0.8], [1, 2, 0, 2]),
    ]
    for n, c, k in runs:
        for z in (0.5, 1.0, 2.0):
            rep = numerical_monodromy(build_system(n, c, k, z))
            assert rep.max_coeff_residual < 1e-6
        for radius in (0.7, 1.3):
            rep = numerical_monodromy(build_system(n, c, k, 1.0), radius=radius)
            assert rep.max_coeff_residual < 1e-6
    assert time.monotonic() - t0 < 120.0
