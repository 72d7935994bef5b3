import dataclasses
import math
import random
import re
from fractions import Fraction as Q
from itertools import combinations
from typing import Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import character_reference as ref
from coxstokes import steinberg
from coxstokes.cli import EXIT_VERIFY, main
from coxstokes.coxeter import bipartition
from coxstokes.rootcore import build_root_system, diagram_involution
from coxstokes.scalars import mat_vec
from coxstokes.steinberg import (
    CHAR_TOL,
    ConsistencyError,
    InadmissibleError,
    admissible_m,
    alcove_map,
    semisimple_spectrum_check,
    steinberg_section,
    stokes_from_asymptotics,
    torus_character_values,
    verify_factor_supports,
)
from coxstokes.characters import _table_pairing, all_fundamental_tables, fundamental_characters
from coxstokes.weightrep import (
    NilpotentExp,
    fundamental_representation,
    registered_representation,
)
from rational_reference import mat_inv

# the solver must reject overflowing trial steps without numpy warnings
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def rand_rational_vec(rng, l, lo=-2, hi=2, den=6):
    return tuple(Q(rng.randint(lo * den, hi * den), den) for _ in range(l))


def rand_admissible_m(rng, rs):
    while True:
        a = [Q(rng.randint(-9, 20), 10) for _ in range(rs.rank)]
        m = mat_vec(mat_inv(rs.form), a)
        if admissible_m(rs, m):
            return tuple(m)


# -- alcove ---------------------------------------------------------------------


def test_alcove_interior_at_zero():
    rs = build_root_system("A3")
    pt = alcove_map(rs, [Q(0)] * 3)
    assert pt.admissible
    assert all(sl == Q(1, 4) for sl in pt.slacks_simple)  # alpha_i(x0/s) = 1/s
    assert pt.slack_psi == Q(1, 4)                        # 1 - (s-1)/s


def test_alcove_boundary_face():
    rs = build_root_system("A2")
    # alpha_1(m) = -1 exactly: boundary with zero slack on that face
    a = [Q(-1), Q(1, 3)]
    m = mat_vec(mat_inv(rs.form), a)
    pt = alcove_map(rs, m)
    assert pt.admissible and pt.slacks_simple[0] == 0


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4"]
)
def test_alcove_equivalence_random(name):
    # admissibility alpha_i(m) >= -1 agrees with the alcove inequalities, exactly
    rs = build_root_system(name)
    rng = random.Random(name)
    s = rs.coxeter_number
    for _ in range(100):
        m = rand_rational_vec(rng, rs.rank)
        pt = alcove_map(rs, m)   # asserts agreement internally
        assert pt.admissible == admissible_m(rs, m)
        # the integer rows give the Fractions of the form itself
        y = tuple((mi + x0i) / s for mi, x0i in zip(m, rs.x0_coords))
        assert pt.y == y
        assert pt.slacks_simple == tuple(rs.pairing(a, y) for a in rs.simple_roots)
        assert pt.slack_psi == 1 - rs.pairing(rs.psi, y)
        assert admissible_m(rs, m) == (
            all(rs.pairing(a, m) >= -1 for a in rs.simple_roots) and rs.pairing(rs.psi, m) <= 1
        )


@pytest.mark.parametrize("name,needs_sigma", [("A3", True), ("D5", True), ("E6", True), ("B3", False)])
def test_sigma_fixed_filter(name, needs_sigma):
    rs = build_root_system(name)
    nu = diagram_involution(rs)
    rng = random.Random(7)
    m_sym = rand_admissible_m(rng, rs)
    # symmetrize in H-coordinates
    m_sym = tuple((m_sym[i] + m_sym[nu[i] - 1]) / 2 for i in range(rs.rank))
    pt = alcove_map(rs, m_sym)
    assert pt.sigma_fixed
    assert pt.admissible == admissible_m(rs, m_sym)
    if needs_sigma and nu != tuple(range(1, rs.rank + 1)):
        moved = next(i for i in range(rs.rank) if nu[i] != i + 1)
        m_asym = list(m_sym)
        m_asym[moved] += Q(1, 17)
        if admissible_m(rs, m_asym):
            pt = alcove_map(rs, m_asym)
            assert pt.admissible and not pt.sigma_fixed


# -- cross-section ----------------------------------------------------------------


def _ext_trace(g, k):
    idx = list(combinations(range(g.shape[0]), k))
    return sum(np.linalg.det(g[np.ix_(r, r)]) for r in idx)


@pytest.mark.parametrize("name", ["A2", "A3", "A4"])
def test_cross_section_identity_exterior_power_oracle(name):
    # chi(C^Gamma(t)) = t for 50 random t, chi via exterior-power traces
    rs = build_root_system(name)
    rep = registered_representation(name)
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    rng = np.random.default_rng(12)
    for _ in range(50 if name != "A4" else 10):
        t = rng.normal(size=rs.rank) + 1j * rng.normal(size=rs.rank)
        C = steinberg_section(rep, bip, t).full()
        chi = [_ext_trace(C, j) for j in range(1, rs.rank + 1)]
        for pos, node in enumerate(order):
            assert abs(chi[node - 1] - t[pos]) < 1e-10


def test_cross_section_at_zero_is_coxeter_representative():
    rs = build_root_system("A2")
    rep = registered_representation("A2")
    cs = steinberg_section(rep, bipartition(rs), [0, 0])
    assert np.max(np.abs(cs.full() - cs.a_gamma())) < 1e-14
    w = np.linalg.matrix_power(cs.a_gamma(), 3)
    assert np.max(np.abs(np.abs(w) - np.eye(3))) < 1e-12  # order 3 in PSL


# -- torus character values ---------------------------------------------------------


def test_torus_character_values_a2():
    rs = build_root_system("A2")
    tables = all_fundamental_tables(rs)
    y = tuple(c / 3 for c in rs.r_coeffs)
    t = torus_character_values(rs, tables, y)
    assert np.max(np.abs(t)) < 1e-12
    t0 = torus_character_values(rs, tables, (Q(0), Q(0)))
    assert np.allclose(t0, [3, 3])


# -- Stokes pipeline -----------------------------------------------------------------


def test_stokes_a2_zero():
    sd = stokes_from_asymptotics("A2", [Q(0), Q(0)])
    assert np.max(np.abs(np.array(sd.t))) < 1e-12
    assert np.max(np.abs(sd.k1 - np.eye(3))) < 1e-12
    assert np.max(np.abs(sd.k2 - np.eye(3))) < 1e-12
    assert np.max(np.abs(sd.m0 - sd.a_gamma)) < 1e-12
    chk = semisimple_spectrum_check(sd)
    want = sorted(np.angle(np.exp(2j * np.pi * np.array([1, 0, -1]) / 3)))
    got = sorted(np.angle(np.linalg.eigvals(sd.m0)))
    assert np.allclose(got, want, atol=1e-9)
    assert chk.ok and chk.charpoly_residual < 1e-9


def test_stokes_sl3_generic_k1_support():
    # K1 is unipotent supported on the alpha_2 root space only
    rng = random.Random(3)
    rs = build_root_system("A2")
    m = rand_admissible_m(rng, rs)
    sd = stokes_from_asymptotics("A2", m)
    assert sd.k1_support == ((0, 1),)
    k1 = sd.k1 - np.eye(3)
    nz = {(i, j) for i in range(3) for j in range(3) if abs(k1[i, j]) > 1e-12}
    assert nz <= {(1, 2)}  # e_{alpha_2} = E_{1,2} in the standard rep
    sup = verify_factor_supports(sd)
    assert max(sup.residuals.values()) < 1e-8


def test_stokes_inadmissible_raises():
    with pytest.raises(InadmissibleError):
        stokes_from_asymptotics("A2", [Q(-5), Q(0)])
    # the slacks as rationals, not as Fraction reprs
    with pytest.raises(InadmissibleError) as info:
        stokes_from_asymptotics("B3", (100, 0, 0))
    assert str(info.value) == "m inadmissible: simple slacks (67/2, -33/2, 1/6), psi slack 1/6"


@pytest.mark.parametrize("name", ["A3", "B2", "C3", "D4", "G2"])
def test_stokes_pipeline_generic(name):
    rng = random.Random(name)
    rs = build_root_system(name)
    m = rand_admissible_m(rng, rs)
    sd = stokes_from_asymptotics(name, m)
    assert sd.factorization_residual < 1e-8
    assert sd.class_residual < 1e-8
    chk = semisimple_spectrum_check(sd)
    assert chk.ok
    sup = verify_factor_supports(sd)
    assert max(sup.residuals.values()) < 1e-8


def test_stokes_boundary_resonance():
    # m on an alcove wall: eigenvalues collide, charpoly comparison still holds
    rs = build_root_system("A3")
    a = [Q(-1), Q(1, 2), Q(1, 3)]
    m = mat_vec(mat_inv(rs.form), a)
    sd = stokes_from_asymptotics("A3", m)
    chk = semisimple_spectrum_check(sd)
    assert not chk.regular
    assert chk.eigenvalue_residual is None
    assert chk.ok and chk.charpoly_residual < 1e-7


def test_stokes_d4_support_sets():
    from coxstokes.coxeter import coxeter_element

    rs = build_root_system("D4")
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    sd = stokes_from_asymptotics("D4", [Q(1, 5)] * 4)
    assert set(sd.k1_support) == {rs.simple_roots[i - 1] for i in bip.i2}
    want_k2 = {
        gamma.apply(tuple(-c for c in rs.simple_roots[i - 1])) for i in bip.i1
    }
    assert set(sd.k2_support) == want_k2
    # K2's support lies on the second singular direction: positive roots
    assert all(sum(r) > 0 for r in sd.k2_support)


def test_alcove_disagreement_is_consistency_error(monkeypatch):
    # a broken admissibility criterion is a verification failure (exit 3)
    monkeypatch.setattr(steinberg, "admissible_m", lambda rs, m: False)
    with pytest.raises(ConsistencyError, match="disagree"):
        alcove_map(build_root_system("A2"), [Q(0), Q(0)])
    assert main(["stokes", "--type", "A2", "--m=0,0"]) == EXIT_VERIFY


# -- the spectrum carried in StokesData --------------------------------------------------

# the 22 stokes points of the benchmark: its interior points, every vertex of
# B3, C3 and G2, and vertex 0 of D4
BENCH_POINTS = [
    ("B3", "-1/8,-5/4,-15/8"), ("B3", "0,-7/4,-21/8"), ("C3", "1/2,7/4,11/8"),
    ("C3", "-7/4,-13/4,-13/8"), ("G2", "-45/8,-13/4"), ("G2", "-13/8,-1"),
    ("D4", "-7/8,-1,-1/2,-3/4"), ("D4", "-3/2,-11/4,-7/4,-3/2"), ("B4", "2/3,0,1/6,1/6"),
    ("B4", "7/6,2/3,1/3,-1/2"), ("B3", "-3,-5,-6"), ("B3", "3,1,0"), ("B3", "0,1,0"),
    ("B3", "0,1,3"), ("C3", "-5,-8,-9/2"), ("C3", "1,-2,-3/2"), ("C3", "1,4,3/2"),
    ("C3", "1,4,9/2"), ("G2", "-9,-5"), ("G2", "3,1"), ("G2", "0,1"), ("D4", "-3,-5,-3,-3"),
]


def test_carried_spectrum_report_is_the_fresh_check(monkeypatch):
    # the report that reads sd.spectrum equals, bit for bit, the check formed
    # from scratch, which never sees the class solve's eigenvalues
    fresh = {}
    for name, m_text in BENCH_POINTS:
        sd = stokes_from_asymptotics(name, [Q(c) for c in m_text.split(",")])
        assert sd.spectrum.m0 is sd.m0
        fresh[name, m_text] = (sd, semisimple_spectrum_check(dataclasses.replace(sd, spectrum=None)))

    def forbidden(*args):
        raise AssertionError("carried spectrum formed again")

    monkeypatch.setattr(steinberg, "_spectrum", forbidden)
    for sd, want in fresh.values():
        got = semisimple_spectrum_check(sd)
        assert (got.regular, got.ok) == (want.regular, want.ok)
        assert np.array_equal([got.charpoly_residual], [want.charpoly_residual])
        assert got.eigenvalue_residual == want.eigenvalue_residual


def test_tampered_m0_is_checked_afresh():
    sd = stokes_from_asymptotics("B3", [Q(0), Q(1), Q(3)])
    assert semisimple_spectrum_check(sd).ok
    with pytest.raises(ValueError, match="read-only"):
        sd.m0[0, 0] += 1
    tampered = sd.m0.copy()
    tampered[0, 0] += 1e-3
    chk = semisimple_spectrum_check(dataclasses.replace(sd, m0=tampered))
    assert not chk.ok and chk.charpoly_residual > 1e-4
    # a changed y is checked against its own targets too
    moved = dataclasses.replace(sd, y=alcove_map(build_root_system("B3"), [Q(0)] * 3).y)
    assert not semisimple_spectrum_check(moved).ok


@pytest.mark.parametrize("name,index", [("B3", 3), ("D4", 4), ("G2", 2)])
def test_rep_stokes_data_carries_the_targets_of_its_representation(name, index):
    rs = build_root_system(name)
    rep = fundamental_representation(name, index)
    m = [Q(1, 7)] * rs.rank
    sd = stokes_from_asymptotics(name, m, rep=rep)
    spec = sd.spectrum
    assert sd.rep is rep and spec.m0 is sd.m0 and spec.y == sd.y
    assert sd.rep_name == rep.name and sd.p0 is rep.p0_matrix()
    want = np.exp(2j * np.pi * rep.weight_values(sd.y))
    assert np.array_equal(spec.targets, want)
    assert np.array_equal(spec.target_poly, np.poly(np.diag(want)))
    assert np.array_equal(spec.charpoly, np.poly(sd.m0))
    got = semisimple_spectrum_check(sd)
    fresh = semisimple_spectrum_check(dataclasses.replace(sd, spectrum=None))
    assert got == fresh and got.ok
    # without rep, the data carries the registered representation
    reg = stokes_from_asymptotics(name, m)
    assert reg.rep is registered_representation(name) and reg.rep is not rep


# -- cached cross-section factors ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6"]
)
def test_adjoint_exp_series_matches_expm(name):
    rs = build_root_system(name)
    adj = ref.adjoint_section(name)
    alg = adj.alg
    for i, a in enumerate(rs.simple_roots):
        e = alg.ad({a: 1}) / (float(rs.inner(a, a)) / 2)
        f = alg.ad({tuple(-c for c in a): 1})
        exp_e, n_i = adj.section_factors(i)
        for series, x in ((exp_e, e), (NilpotentExp(f), f)):
            for t in (0.7 - 0.3j, -1.9 + 2.2j, 3j):
                want = expm(t * x)
                assert np.max(np.abs(series(t) - want)) <= 1e-12 * np.max(np.abs(want))
        want = expm(-e) @ expm(f) @ expm(-e)
        assert np.max(np.abs(n_i - want)) <= 1e-12 * np.max(np.abs(want))


# t recorded with the cross-section built from scipy.linalg.expm on every
# evaluation: the benchmark's interior points and every alcove vertex.  At the
# vertex rows, B3 (0, -7/4, -21/8) and D5 vertex 0 the registered targets
# collide and the class solve back-substitutes; these rows agree with its
# exact answer to 1e-12.  B3 (0, -7/4, -21/8), (0, 1, 0) and (0, 1, 3) are
# recorded from back-substitution: the power-sum route left t_3 about 2e-6
# off there.  The other interior rows are the power-sum route's.
GOLDEN_T = [
    ("B3", "-1/8,-5/4,-15/8", "interior", [
        (3.3363572758385955, -2.6889794309291408e-15),
        (3.0823922002923947, -7.751021483673016e-16),
        (0.46024945073515516, -3.1331915551339954e-14),
    ]),
    ("B3", "0,-7/4,-21/8", "interior", [
        (4.830648787770187, 4.1222699434471035e-16),
        (3.9147413753257556, 4.555315873022823e-16),
        (8.326672684688674e-17, 0.0),
    ]),
    ("C3", "1/2,7/4,11/8", "interior", [
        (2.202699034717071, -4.864566332014202e-16),
        (-2.149374510595577, -2.9345073704612195e-15),
        (-1.9466754758785045, 2.7060992187617034e-15),
    ]),
    ("C3", "-7/4,-13/4,-13/8", "interior", [
        (4.628149926930873, 5.0827943586801386e-15),
        (2.8852119855018628, -4.4186807770412503e-16),
        (5.130978832988599, 8.582786728227507e-15),
    ]),
    ("G2", "-45/8,-13/4", "interior", [
        (18.456572306747077, 5.486789112597867e-15),
        (6.0841243528815285, 1.0740355210350309e-15),
    ]),
    ("G2", "-13/8,-1", "interior", [
        (1.8583412345972192, 6.1372833075322644e-15),
        (1.373131206346637, 3.6081012732235564e-16),
    ]),
    ("D4", "-7/8,-1,-1/2,-3/4", "interior", [
        (2.029024133776904, 6.009329089860552e-15),
        (1.3631754922036083, 1.975835752591031e-15),
        (2.0985979802013395, 3.6094503121713265e-15),
        (1.5026140930268808, 8.535124395216563e-16),
    ]),
    ("D4", "-3/2,-11/4,-7/4,-3/2", "interior", [
        (13.52760576530318, 3.8183050323030476e-14),
        (5.078116022520069, 1.2387745309942901e-14),
        (5.078116022525365, -6.380430189355069e-13),
        (4.931851652573217, 5.818637453208116e-13),
    ]),
    ("B3", "-3,-5,-6", "vertex", [
        (29.000000000000007, 2.587900915522625e-14),
        (7.999999999999999, 7.134002836826894e-15),
        (8.000000000000005, 3.4615941313496278e-15),
    ]),
    ("B3", "3,1,0", "vertex", [
        (28.999999999999762, 1.9101307771055027e-14),
        (7.999999999999943, 5.590595519085702e-15),
        (-7.999999999999966, -2.3846490268387653e-15),
    ]),
    ("B3", "0,1,0", "vertex", [
        (-2.9999999999999987, 6.66133814775091e-16),
        (-1.5543122344752192e-15, 4.440892098500626e-16),
        (0.0, 0.0),
    ]),
    ("B3", "0,1,3", "vertex", [
        (5.000000000000007, 4.1411528337867194e-15),
        (-4.000000000000002, 4.440892098500626e-16),
        (4.930380657631324e-32, 0.0),
    ]),
    ("C3", "-5,-8,-9/2", "vertex", [
        (15.000000000000057, -6.023471172384481e-15),
        (6.000000000000019, -2.706792991685064e-15),
        (20.00000000000007, -7.754342249872947e-15),
    ]),
    ("C3", "1,-2,-3/2", "vertex", [
        (-1.0000000000000024, 3.237476991451014e-16),
        (2.0000000000000044, -7.210965110184264e-16),
        (-4.000000000000008, 1.0329532582879113e-15),
    ]),
    ("C3", "1,4,3/2", "vertex", [
        (-1.000000000000002, 1.024899908034627e-15),
        (-2.000000000000004, 1.9414707385082445e-15),
        (4.000000000000011, -4.088845515519855e-15),
    ]),
    ("C3", "1,4,9/2", "vertex", [
        (15.000000000000016, -9.23469662973927e-15),
        (-6.0000000000000036, 2.7363179264832784e-15),
        (-20.000000000000018, 1.3436153001660517e-14),
    ]),
    ("G2", "-9,-5", "vertex", [
        (28.999999999999986, 9.677345723764313e-15),
        (7.999999999999997, 1.5373963318333687e-15),
    ]),
    ("G2", "3,1", "vertex", [
        (1.9999999999999754, 1.4918817877037973e-16),
        (-0.9999999999999905, -1.0644976351522987e-17),
    ]),
    ("G2", "0,1", "vertex", [
        (-2.9999999999999987, -5.355143151879768e-16),
        (1.6098883080625278e-15, -2.744719127608676e-16),
    ]),
    ("D5", "-4,-7,-9,-5,-5", "vertex", [
        (45.999999999999986, -8.271249929286396e-16),
        (16.0, -1.9852334701272664e-23),
        (16.0, 8.68539643180679e-24),
        (10.0, -1.0313320633663406e-16),
        (130.00000000000003, -2.359005002398817e-15),
    ]),
]


@pytest.mark.parametrize(
    "name,m_text,kind,t_ref", [pytest.param(*row, id=f"{row[0]}[{row[1]}]") for row in GOLDEN_T]
)
def test_section_parameters_golden(name, m_text, kind, t_ref):
    m = [Q(c) for c in m_text.split(",")]
    sd = stokes_from_asymptotics(name, m)
    t_ref = np.array([complex(*z) for z in t_ref])
    tol = 1e-8 if kind == "interior" else 1e-5
    assert np.max(np.abs(np.array(sd.t) - t_ref)) <= tol * max(1.0, np.max(np.abs(t_ref)))


# Alcove vertices with the t back-substitution returns (in Gamma order):
# integers, as at every vertex measured so far.  At the D5 rows the power-sum
# route meets the registered bound 1.4e-6 to 4.5e-6 away from these; the
# class solve back-substitutes there, as at every vertex.
CENSUS = [
    ("D5", "-4,-7,-9,-5,-5", (46, 16, 16, 10, 130)),
    ("B4", "-4,-7,-9,-10", (46, 16, 10, 130)),
    ("B4", "4,1,-1,-2", (46, -16, 10, 130)),
    ("D5", "4,1,-1,-1,-1", (46, -16, -16, 10, 130)),
    ("D5", "0,1,3,5,1", (46, 16j, -16j, -10, -130)),
    ("D5", "0,1,3,1,5", (46, -16j, 16j, -10, -130)),
    ("F4", "-11,-21,-30,-16", (3732, 27, 79, 378)),
    ("E6", "-8,-11,-15,-21,-15,-8", (79, 378, 378, 27, 3732, 27)),
]


@pytest.mark.parametrize(
    "name,m_text,t_exact", [pytest.param(*row, id=f"{row[0]}[{row[1]}]") for row in CENSUS]
)
def test_character_route_at_census_vertices(name, m_text, t_exact):
    # the closed form, and back-substitution on sections, land on the integer t
    rs = build_root_system(name)
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    m = [Q(c) for c in m_text.split(",")]
    y = alcove_map(rs, m).y
    chi = torus_character_values(rs, [fundamental_characters(name, k) for k in order], y)
    t = steinberg._closed_form(name, order, chi)
    assert np.max(np.abs(t - np.array(t_exact))) <= 1e-9
    t_ref, r = ref.back_substitute(name, chi)
    assert r <= CHAR_TOL
    assert np.max(np.abs(t_ref - np.array(t_exact))) <= 1e-9
    assert np.max(np.abs(np.array(stokes_from_asymptotics(name, m).t) - t_exact)) <= 1e-9
    # every fundamental representation small enough to build has its target
    # spectrum at t (characteristic polynomials: the targets are degenerate)
    for k in range(1, rs.rank + 1):
        if fundamental_characters(name, k).dim > 45:
            continue
        rep = fundamental_representation(name, k)
        got = np.poly(steinberg_section(rep, bip, t).full())
        want = np.poly(np.diag(np.exp(2j * np.pi * rep.weight_values(y))))
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), k


REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")


def _vertices(rs):
    """(y, m) at the l + 1 alcove vertices: y = 0 and y = eps_j / q_j (alpha_i(y) = delta_ij / q_j)."""
    l, s = rs.rank, rs.coxeter_number
    ys = [(Q(0),) * l] + [
        tuple(rs.epsilon_basis[k][j] / rs.marks[j + 1] for k in range(l)) for j in range(l)
    ]
    return [(y, [s * c - x for c, x in zip(y, rs.r_coeffs)]) for y in ys]


@pytest.mark.parametrize("name", REGISTERED)
def test_back_substitution_at_every_alcove_vertex(name, monkeypatch):
    # The vertices' registered targets collide, where the registered residual
    # pins t only to about sqrt(eps): outside type A the class solve returns
    # the closed-form t and never enters the power-sum route.  That t agrees
    # with back-substitution on sections, the route it replaced, to 1e-13.
    def forbidden(*args):
        raise AssertionError("power-sum route entered")

    monkeypatch.setattr(steinberg, "_solve_power_sums", forbidden)
    rs = build_root_system(name)
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    tables = [fundamental_characters(name, k) for k in order]
    reg = registered_representation(name)
    for v, (y, m) in enumerate(_vertices(rs)):
        chi = torus_character_values(rs, tables, y)
        t_ref, r = ref.back_substitute(name, chi)
        assert r <= CHAR_TOL, v
        assert not steinberg._distinct(steinberg._target_eigenvalues(reg, y)), v
        if rs.type.family != "A":
            t = steinberg._closed_form(name, order, chi)
            assert np.array_equal(stokes_from_asymptotics(name, m).t, t), v
            assert np.max(np.abs(t - t_ref)) <= 1e-13 * max(1.0, np.max(np.abs(t_ref))), v


@pytest.mark.parametrize("name", REGISTERED)
def test_characters_are_height_triangular(name):
    # Steinberg (1965, section 7): chi_i(C(t)) = t_i + f_i(t_j : ht omega_j <
    # ht omega_i), with ht omega_i the row sum of the inverse Cartan matrix
    rs = build_root_system(name)
    bip = bipartition(rs)
    order = sorted(bip.i2) + sorted(bip.i1)
    ainv = mat_inv([[Q(c) for c in row] for row in rs.cartan])
    height = [sum(ainv[node - 1]) for node in order]
    rng = np.random.default_rng(12)
    l = rs.rank
    t = rng.normal(size=l) + 1j * rng.normal(size=l)
    base = ref.fundamental_traces(name, t)
    for j in range(l):
        tp = t.copy()
        tp[j] += rng.normal() + 1j * rng.normal()
        moved = ref.fundamental_traces(name, tp)
        tol = 1e-11 * max(1.0, np.max(np.abs(base)), np.max(np.abs(moved)))
        for i in range(l):
            if i != j and height[i] <= height[j]:
                assert abs(moved[i] - base[i]) <= tol, (i, j)
        # chi_j - t_j does not depend on t_j
        assert abs((moved[j] - tp[j]) - (base[j] - t[j])) <= tol, j


def _unit_root(num: int, den: int) -> Tuple[float, float]:
    """(cos, sin) of 2 pi num/den, the phase reduced in integers to an angle of at most pi/4.

    num/den mod 1 is split exactly into q quarter turns and a rest r in
    [0, 1/4), reflected to 1/4 - r above 1/8 (cos and sin swapped); cos and
    sin see one rounded angle below pi/4, and the quarter turns are exact.
    """
    q, rest = divmod(4 * (num % den), den)
    swap = 2 * rest > den
    angle = (math.pi / 2) * ((den - rest if swap else rest) / den)
    c, s = math.cos(angle), math.sin(angle)
    if swap:
        c, s = s, c
    for _ in range(q):
        c, s = -s, c
    return c, s


def _accurate_character(rs, index, y) -> complex:
    """chi_index(e^{2 pi i y}) over the Freudenthal table, each term rounded once.

    mu(y) is the integer row of mu times the integer numerators of y, over one
    denominator, so its phase is reduced exactly (_unit_root), and math.fsum
    adds the terms without further rounding.  The package's character_value
    takes the phase unreduced and sums in floats: at the @example below its
    E6 chi_4, a sum of 2,925 terms, is 1.2e-12 off (relative, against 40-digit
    arithmetic), and this sum 2.9e-14.
    """
    pairing, mults = _table_pairing(str(rs.type), index)
    h = [Q(c) for c in y]
    h_den = math.lcm(*(c.denominator for c in h))
    h_int = [int(c * h_den) for c in h]
    terms = [
        (int(mult), _unit_root(sum(a * b for a, b in zip(row, h_int)), pairing.den * h_den))
        for row, mult in zip(pairing.rows, mults)
    ]
    return complex(math.fsum(m * c for m, (c, _) in terms), math.fsum(m * s for m, (_, s) in terms))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(REGISTERED),
    y=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
)
# summed without phase reduction, the 2,925 weights of E6 chi_4 lose 1e-12 here
@example(name="E6", y=[0.0, 1.501953125, 1.501953125, -0.74609375, 0.0, 0.0])
def test_character_recipes_match_weight_tables(name, y):
    # each recipe of ref.characters_from_matrices, fed the diagonal torus element
    # e^{2 pi i y} in the representations the route reads, equals the Freudenthal table
    rs, _, reps = ref.character_sections(name)
    y = y[: rs.rank]
    mats = {key: np.diag(steinberg._target_eigenvalues(rep, y)) for key, rep in reps.items()}
    got = ref.characters_from_matrices(rs, mats)
    for i in range(rs.rank):
        want = _accurate_character(rs, i + 1, y)
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want)), i + 1


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("A2", "A3", "A4", "A5", "A6")),
    parts=st.lists(st.floats(-3, 3), min_size=12, max_size=12),
    y=st.lists(st.floats(-2, 2), min_size=6, max_size=6),
)
def test_type_a_characters_are_the_section_parameters(name, parts, y):
    l = int(name[1])
    t = np.array(parts[:l]) + 1j * np.array(parts[6 : 6 + l])
    assert np.max(np.abs(ref.fundamental_traces(name, t) - t)) <= 1e-12 * max(1.0, np.max(np.abs(t)))
    # so the class solve returns t = chi(y) itself, with no iteration
    rs = build_root_system(name)
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    y = y[:l]
    chi = torus_character_values(rs, [fundamental_characters(name, k) for k in order], y)
    got, r, _, got_chi, _, _ = steinberg._solve_class(rs, bip, order, y)
    assert np.array_equal(got, chi) and r <= steinberg.CLASS_TOL
    assert np.array_equal(got_chi, chi)


PLETHYSM_TYPES = ("B2", "B3", "B4", "C3", "D4", "D5", "G2")
# One alcove vertex per type, where the target spectra are degenerate and the
# section defective, with its exact class point t (in Gamma order) from the
# character route
PLETHYSM_VERTICES = {
    "B2": ("0,1", (0, -2)),
    "B3": ("0,1,0", (-3, 0, 0)),
    "B4": ("0,1,-1,-2", (-2, 0, 2, -6)),
    "C3": ("1,-2,-3/2", (-1, 2, -4)),
    "D4": ("0,1,0,0", (-3, 0, 0, 0)),
    "D5": ("0,1,3,1,1", (-2, 0, 0, -2, 6)),
    "G2": ("3,1", (2, -1)),
}


def _plethysm_sides(name, t):
    """Adjoint power sums k = 1..28 from the adjoint section's eigenvalues and
    from the plethysm of the registered section's, with the plethysm's scale
    (sum_j |mu_j|^k)^2 over the registered eigenvalues mu."""
    rs = build_root_system(name)
    bip = bipartition(rs)
    ks = np.arange(1, 29)
    er = np.linalg.eigvals(steinberg_section(registered_representation(name), bip, t).full())
    ea = np.linalg.eigvals(steinberg_section(ref.adjoint_section(name), bip, t).full())
    plethysm = steinberg._ADJOINT_PLETHYSM[rs.type.family]
    want = plethysm(steinberg._power_sums(er, ks), steinberg._power_sums(er, 2 * ks))
    scale = steinberg._power_sums(np.abs(er), ks).real ** 2
    return steinberg._power_sums(ea, ks), want, scale


@pytest.mark.parametrize("name", PLETHYSM_TYPES)
def test_adjoint_power_sums_are_a_plethysm_of_the_registered(name):
    # p_k^2 and p_2k cancel down to the adjoint sums, so the plethysm's
    # rounding scale is (sum |mu|^k)^2, not |p_k(ad)|
    rng = np.random.default_rng(10)
    l = build_root_system(name).rank
    for _ in range(4):
        t = rng.normal(size=l) + 1j * rng.normal(size=l)
        got, want, scale = _plethysm_sides(name, t)
        assert np.max(np.abs(got - want) / scale) <= 1e-9
    # the power-sum route takes its adjoint targets from the registered ones
    ks = np.arange(1, 29)
    plethysm = steinberg._ADJOINT_PLETHYSM[build_root_system(name).type.family]
    for _ in range(4):
        y = [Q(int(c), 24) for c in rng.integers(-24, 25, size=l)]
        er = steinberg._target_eigenvalues(registered_representation(name), y)
        ea = steinberg._target_eigenvalues(ref.adjoint_section(name), y)
        want = plethysm(steinberg._power_sums(er, ks), steinberg._power_sums(er, 2 * ks))
        assert np.max(np.abs(steinberg._power_sums(ea, ks) - want)) <= 1e-9


@pytest.mark.parametrize("name", PLETHYSM_TYPES)
def test_adjoint_plethysm_at_a_defective_vertex(name):
    m_text, t = PLETHYSM_VERTICES[name]
    rs = build_root_system(name)
    y = alcove_map(rs, [Q(c) for c in m_text.split(",")]).y
    got, want, scale = _plethysm_sides(name, np.array(t, dtype=complex))
    ad_eig = steinberg._target_eigenvalues(ref.adjoint_section(name), y)
    exact = steinberg._power_sums(ad_eig, np.arange(1, 29))
    # t is the exact class point: the plethysm of the registered spectrum
    # gives the adjoint targets' power sums
    assert np.max(np.abs(want - exact) / scale) <= 1e-9
    # float eigenvalues of the defective 10-45-dim adjoint section scatter,
    # so its own power sums agree only to ~1e-8 here (C3)
    assert np.max(np.abs(got - want) / scale) <= 1e-7


def test_no_adjoint_plethysm_for_f4_and_e6(monkeypatch):
    # the adjoint of F4 and E6 is no plethysm of the 26/27, so those types
    # never enter the power-sum route: they solve by back-substitution
    def forbidden(*args):
        raise AssertionError("power-sum route entered")

    monkeypatch.setattr(steinberg, "_solve_power_sums", forbidden)
    for name in ("F4", "E6"):
        assert build_root_system(name).type.family not in steinberg._ADJOINT_PLETHYSM
        sd = stokes_from_asymptotics(name, [0] * build_root_system(name).rank)
        assert sd.class_residual <= steinberg.CLASS_TOL


def test_failed_class_solve_names_route_residual_and_threshold(monkeypatch, capsys):
    # both routes forced to fail at a B3 interior point: the registered and the
    # character bounds are cut to 0, below the rounding-level residuals; the
    # error names the residual, its bound and node, and the power-sum route's
    monkeypatch.setattr(steinberg, "CLASS_TOL", 0.0)
    monkeypatch.setattr(steinberg, "CHAR_TOL", 0.0)
    with pytest.raises(ConsistencyError) as info:
        stokes_from_asymptotics("B3", [Q(-1, 8), Q(-5, 4), Q(-15, 8)])
    msg = str(info.value)
    assert re.search(r"closed form: character residual \S+ \(bound 0\) at node [123];", msg)
    assert re.search(r"power-sum route: registered residual \S+ \(bound 0\)$", msg)
    assert main(["stokes", "--type", "B3", "--m=-1/8,-5/4,-15/8"]) == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "verification failure: class solve failed, closed form" in err


def test_gauss_newton_halves_past_nonfinite_trials():
    # the full first step from 0.1 lands beyond |t| = 10, where the residual
    # is non-finite; the halvings reject it and the solve still converges
    def resid(t):
        return np.where(np.abs(t) > 10, np.inf, t**2 - 4)

    t, r = steinberg._gauss_newton(resid, np.array([0.1]), 1e-12, 60, 1)
    assert r < 1e-12 and abs(t[0] - 2) < 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the power-sum route lands in the class with the half-spin nodes 3 and 4 "
    "swapped, which its registered (vector) residual cannot tell apart",
)
def test_d4_section_matches_every_fundamental_spectrum():
    from scipy.optimize import linear_sum_assignment

    rs = build_root_system("D4")
    bip = bipartition(rs)
    sd = stokes_from_asymptotics("D4", [Q(-3, 2), Q(-11, 4), Q(-7, 4), Q(-3, 2)])
    for k in range(1, 5):
        rep = fundamental_representation("D4", k)
        got = np.linalg.eigvals(steinberg_section(rep, bip, sd.t).full())
        want = np.exp(2j * np.pi * rep.weight_values(sd.y))
        cost = np.abs(want[:, None] - got[None, :])
        ri, ci = linear_sum_assignment(cost)
        assert cost[ri, ci].max() < 1e-8, k
