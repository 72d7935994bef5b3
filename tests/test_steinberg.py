import random
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest
from scipy.linalg import expm

from coxstokes import steinberg
from coxstokes.cli import EXIT_VERIFY, main
from coxstokes.coxeter import bipartition
from coxstokes.rootcore import build_root_system, diagram_involution
from coxstokes.scalars import mat_inv, mat_vec
from coxstokes.steinberg import (
    MIDPOINT_DRAWS,
    ConsistencyError,
    InadmissibleError,
    _adjoint_section,
    _random_admissible_midpoint,
    admissible_m,
    alcove_map,
    certify_alcove_membership,
    semisimple_spectrum_check,
    steinberg_section,
    stokes_from_asymptotics,
    torus_character_values,
    verify_factor_supports,
)
from coxstokes.characters import all_fundamental_tables
from coxstokes.weightrep import NilpotentExp, registered_representation

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
    for _ in range(100):
        m = rand_rational_vec(rng, rs.rank)
        pt = alcove_map(rs, m)   # asserts agreement internally
        assert pt.admissible == admissible_m(rs, m)


@pytest.mark.parametrize("name,needs_sigma", [("A3", True), ("D5", True), ("E6", True), ("B3", False)])
def test_sigma_fixed_filter(name, needs_sigma):
    rs = build_root_system(name)
    nu = diagram_involution(rs)
    rng = random.Random(7)
    m_sym = rand_admissible_m(rng, rs)
    # symmetrize in H-coordinates
    m_sym = tuple((m_sym[i] + m_sym[nu[i] - 1]) / 2 for i in range(rs.rank))
    assert alcove_map(rs, m_sym).sigma_fixed
    assert certify_alcove_membership(rs, m_sym) == admissible_m(rs, m_sym)
    if needs_sigma and nu != tuple(range(1, rs.rank + 1)):
        moved = next(i for i in range(rs.rank) if nu[i] != i + 1)
        m_asym = list(m_sym)
        m_asym[moved] += Q(1, 17)
        if admissible_m(rs, m_asym):
            assert not alcove_map(rs, m_asym).sigma_fixed
            assert not certify_alcove_membership(rs, m_asym)


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
    assert max(sup.values()) < 1e-8


def test_stokes_inadmissible_raises():
    with pytest.raises(InadmissibleError):
        stokes_from_asymptotics("A2", [Q(-5), Q(0)])


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
    assert max(sup.values()) < 1e-8


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


# -- cached cross-section factors ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6"]
)
def test_adjoint_exp_series_matches_expm(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    adj = _adjoint_section(name, tuple(sorted(bip.i2)) + tuple(sorted(bip.i1)))
    alg = adj.alg
    for i in adj.order:
        a = rs.simple_roots[i - 1]
        e = alg.ad_dense(alg.e(a)) / (float(rs.inner(a, a)) / 2)
        f = alg.ad_dense(alg.e(tuple(-c for c in a)))
        for series, x in ((adj.exp_ad_e[i], e), (NilpotentExp(f), f)):
            for t in (0.7 - 0.3j, -1.9 + 2.2j, 3j):
                want = expm(t * x)
                assert np.max(np.abs(series(t) - want)) <= 1e-12 * np.max(np.abs(want))
        want = expm(-e) @ expm(f) @ expm(-e)
        assert np.max(np.abs(adj.n_ad[i] - want)) <= 1e-12 * np.max(np.abs(want))


# t recorded with the cross-section built from scipy.linalg.expm on every
# evaluation: the benchmark's interior points and every alcove vertex
GOLDEN_T = [
    ("B3", "-1/8,-5/4,-15/8", "interior", [
        (3.3363572758385955, -2.6889794309291408e-15),
        (3.0823922002923947, -7.751021483673016e-16),
        (0.46024945073515516, -3.1331915551339954e-14),
    ]),
    ("B3", "0,-7/4,-21/8", "interior", [
        (4.830648787770144, 9.515732117146769e-15),
        (3.9147413753257214, 3.090519013454372e-15),
        (-2.7987489964878616e-06, 1.030701506521041e-10),
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
        (-3.0000000000000098, -3.0527312111190325e-14),
        (1.403699295286637e-15, -8.413640901333298e-15),
        (-2.0550320296353305e-06, 1.9413289171473005e-08),
    ]),
    ("B3", "0,1,3", "vertex", [
        (5.000000000000058, 1.2640448022552945e-14),
        (-4.000000000000065, -2.2598785688591248e-14),
        (2.390752177596177e-06, -3.2913277960420774e-09),
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


def test_midpoint_search_is_bounded():
    class NeverAdmissible:
        draws = 0

        def integers(self, low, high, size):
            self.draws += 1
            return np.full(size, high - 1)

    rs = build_root_system("G2")
    rng = NeverAdmissible()
    with pytest.raises(ConsistencyError, match="no admissible detour midpoint"):
        _random_admissible_midpoint(rs, [Q(0)] * 2, rng)
    assert rng.draws == MIDPOINT_DRAWS
