"""The support check of K1 and K2 and the Stokes multipliers it reports.

verify_factor_supports reads log K1 and log K2 in the representation M0 is
assembled in.  The adjoint check it replaced is kept here as a reference
(adjoint_support_residual), and the tamper census asserts that both see the
same tampering.  A sign flipped in one node's multiplier leaves log K2 in
its span, so the constants table, not the support check, catches it.
"""

import dataclasses
from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import character_reference as ref
from coxstokes.coxeter import bipartition, coxeter_element
from coxstokes.rootcore import build_root_system
from coxstokes.steinberg import (
    FACTOR_TOL,
    ConsistencyError,
    _distinct,
    _unipotent_log,
    semisimple_spectrum_check,
    steinberg_section,
    stokes_from_asymptotics,
    verify_factor_supports,
)
from coxstokes.weightrep import NilpotentExp, fundamental_representation, registered_representation

MULTIPLIER_CONSTANTS = ref.MULTIPLIER_CONSTANTS
REGISTERED = tuple(MULTIPLIER_CONSTANTS)


def seeded_t(name: str, seed: int) -> np.ndarray:
    l = build_root_system(name).rank
    rng = np.random.default_rng([seed, l, ord(name[0])])
    return 3 * (rng.normal(size=l) + 1j * rng.normal(size=l))


def stokes_at(name: str, t, rep=None):
    """The Stokes data of the section at t in rep (default: the registered one)."""
    rs = build_root_system(name)
    rep = rep or registered_representation(name)
    base = stokes_from_asymptotics(name, [Q(0)] * rs.rank, rep=rep)
    k1, k2, a_gamma = steinberg_section(rep, bipartition(rs), t).rewritten()
    return dataclasses.replace(
        base, t=tuple(complex(c) for c in t), m0=k1 @ k2 @ a_gamma, k1=k1, k2=k2, a_gamma=a_gamma
    )


def ratios(sd, sup) -> np.ndarray:
    """multiplier / t in Gamma order."""
    return np.concatenate([sup.multipliers["k1"], sup.multipliers["k2"]]) / np.array(sd.t)


def constants_hold(name: str, sd, sup) -> bool:
    want = np.array(MULTIPLIER_CONSTANTS[name], dtype=float)
    return bool(np.max(np.abs(ratios(sd, sup) - want)) <= 1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("name", REGISTERED)
def test_multiplier_constants(name):
    for seed in range(3):
        sd = stokes_at(name, seeded_t(name, seed))
        sup = verify_factor_supports(sd)
        assert max(sup.residuals.values()) <= 1e-12 * max(1.0, max(map(abs, sd.t)))
        assert constants_hold(name, sd, sup), ratios(sd, sup)


@pytest.mark.parametrize("name,index", [("A3", 2), ("B3", 2), ("C3", 2), ("D4", 3), ("D4", 4),
                                        ("G2", 2)])
def test_multipliers_do_not_depend_on_the_representation(name, index):
    t = seeded_t(name, 7)
    want = verify_factor_supports(stokes_at(name, t)).multipliers
    rep = fundamental_representation(name, index)
    got = verify_factor_supports(stokes_at(name, t, rep)).multipliers
    for key in ("k1", "k2"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * np.max(np.abs(t))


@pytest.mark.parametrize("name,index", [("B3", 3), ("D4", 4), ("G2", 2)])
def test_rep_data_is_checked_in_its_own_representation(name, index):
    # both checks read the representation off sd; their results are bit for
    # bit those of the same computations in a rep passed beside the data
    rep = fundamental_representation(name, index)
    sd = stokes_from_asymptotics(name, [Q(1, 7)] * build_root_system(name).rank, rep=rep)
    assert sd.rep is rep
    sup = verify_factor_supports(sd)
    for key, mat, support in (("k1", sd.k1, sd.k1_support), ("k2", sd.k2, sd.k2_support)):
        x = _unipotent_log(mat).reshape(-1)
        basis = np.stack([rep.root_matrix(r).reshape(-1) for r in support], axis=1)
        coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
        assert sup.multipliers[key].tobytes() == coef.tobytes(), key
        assert sup.residuals[key] == float(np.max(np.abs(basis @ coef - x))), key
    chk = semisimple_spectrum_check(sd)
    targets = np.exp(2j * np.pi * rep.weight_values(sd.y))
    eig = np.linalg.eigvals(sd.m0)
    poly_res = float(np.max(np.abs(np.poly(eig) - np.poly(np.diag(targets)))))
    assert chk.ok and chk.regular == _distinct(targets)
    assert chk.charpoly_residual == poly_res
    eig_res = None
    if chk.regular:  # the half-spin targets of D4 collide at this point
        cost = np.abs(targets[:, None] - eig[None, :])
        ri, ci = linear_sum_assignment(cost)
        eig_res = float(cost[ri, ci].max())
    assert chk.eigenvalue_residual == eig_res


@pytest.mark.parametrize("name", REGISTERED)
def test_a_flipped_sign_passes_the_support_check_and_fails_the_constants(name):
    rs = build_root_system(name)
    k = len(bipartition(rs).i2)
    t = seeded_t(name, 11)
    sd = stokes_at(name, t)
    for pos in range(k, rs.rank):
        flipped = t.copy()
        flipped[pos] *= -1
        bad = dataclasses.replace(sd, k2=stokes_at(name, flipped).k2)
        sup = verify_factor_supports(bad)
        assert max(sup.residuals.values()) <= 1e-12 * np.max(np.abs(t))
        assert not constants_hold(name, bad, sup), pos


# -- the tamper census, against the adjoint check the support check replaced ----------


def adjoint_factors(name: str, t) -> dict:
    """K1 and K2 of the adjoint section at t, as the adjoint check built them."""
    adj = ref.adjoint_section(name)
    k1, k2, _ = steinberg_section(adj, bipartition(adj.rs), t).rewritten()
    return {"k1": k1, "k2": k2}


def adjoint_support_residual(name: str, mat, support, tamper=None):
    """(residual, bound) of the adjoint check: log K expanded over the ad-matrices
    of the support root vectors; tamper, a root beta and eps, multiplies K by
    exp(eps ad e_beta) first."""
    alg = ref.adjoint_section(name).alg
    if tamper is not None:
        beta, eps = tamper
        mat = mat @ NilpotentExp(alg.ad({beta: 1}))(eps)
    x = _unipotent_log(mat).reshape(-1)
    basis = np.stack([alg.ad({r: 1}).reshape(-1) for r in support], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.max(np.abs(basis @ coef - x))), FACTOR_TOL * max(1.0, float(np.max(np.abs(x))))


def tampered_factor(sd, factor: str, beta, eps):
    rep = registered_representation(sd.type_name)
    mat = getattr(sd, factor) @ NilpotentExp(rep.root_matrix(beta))(eps)
    return dataclasses.replace(sd, **{factor: mat})


@pytest.mark.parametrize("name", REGISTERED)
def test_a_root_off_the_support_fails_both_checks(name):
    # K times exp(eps e_beta), eps = 1e-6 max(1, |t|), for every root beta off K's support
    rs = build_root_system(name)
    t = seeded_t(name, 13)
    sd = stokes_at(name, t)
    eps = 1e-6 * max(1.0, float(np.max(np.abs(t))))
    adjoint = adjoint_factors(name, t)
    for factor, support in (("k1", sd.k1_support), ("k2", sd.k2_support)):
        for beta in rs.roots:
            if beta in support:
                continue
            with pytest.raises(ConsistencyError, match=f"log {factor} leaves"):
                verify_factor_supports(tampered_factor(sd, factor, beta, eps))
            res, bound = adjoint_support_residual(name, adjoint[factor], support, (beta, eps))
            assert res > bound, (factor, beta)


@pytest.mark.parametrize("name", REGISTERED)
def test_a_k2_support_of_gamma_alpha_fails_both_checks(name):
    rs = build_root_system(name)
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    t = seeded_t(name, 17)
    wrong = tuple(gamma.apply(rs.simple_roots[i - 1]) for i in sorted(bip.i1))
    sd = dataclasses.replace(stokes_at(name, t), k2_support=wrong)
    with pytest.raises(ConsistencyError, match="log k2 leaves"):
        verify_factor_supports(sd)
    res, bound = adjoint_support_residual(name, adjoint_factors(name, t)["k2"], wrong)
    assert res > bound
