from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.linalg import expm

from coxstokes.characters import fundamental_characters
from coxstokes.chevalley import InvariantViolation, build_chevalley
from coxstokes.weightrep import (
    NilpotentExp,
    Representation,
    UnsupportedRepresentationError,
    _verify_representation,
    fundamental_representation,
    registered_representation,
)

REGISTERED_DIMS = {
    "A2": 3, "A3": 4, "A4": 5, "B2": 5, "B3": 7, "B4": 9,
    "C3": 6, "D4": 8, "D5": 10, "G2": 7, "F4": 26, "E6": 27,
}


@pytest.mark.parametrize("name", sorted(REGISTERED_DIMS))
def test_registered_dimensions(name):
    rep = registered_representation(name)
    assert rep.dim == REGISTERED_DIMS[name]


def test_e7_e8_not_registered():
    for name in ("E7", "E8"):
        with pytest.raises(UnsupportedRepresentationError):
            registered_representation(name)


def test_an_standard_is_matrix_units():
    # H_{x_i-x_j} = E_ii - E_jj and e_{x_i-x_j} = E_ij in the standard rep
    for n in (2, 3):
        rep = registered_representation(f"A{n}")
        rs = rep.rs
        for i in range(n):
            e = rep.e_float(i)
            want = np.zeros((n + 1, n + 1))
            want[i, i + 1] = 1
            assert np.array_equal(e, want)
            assert np.array_equal(rep.f_float(i), want.T)
        # composite root vectors: e_{x_i - x_j} = E_{i,j} exactly
        for a in range(n + 1):
            for b in range(n + 1):
                if a == b:
                    continue
                coords = [0] * n
                lo, hi = min(a, b), max(a, b)
                for k in range(lo, hi):
                    coords[k] = 1 if a < b else -1
                m = rep.root_matrix(tuple(coords))
                want = np.zeros((n + 1, n + 1), dtype=complex)
                want[a, b] = 1
                assert np.max(np.abs(m - want)) < 1e-12


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3"])
def test_rep_is_homomorphism_on_all_roots(name):
    # [rep(e_a), rep(e_b)] agrees with the abstract bracket table
    rep = registered_representation(name)
    alg = build_chevalley(name)
    rs = alg.rs
    mats = {r: rep.root_matrix(r) for r in rs.roots}
    for a in rs.roots:
        for b in rs.roots:
            comm = mats[a] @ mats[b] - mats[b] @ mats[a]
            s = tuple(x + y for x, y in zip(a, b))
            if rs.is_root(s):
                want = complex(alg.nval(a, b)) * mats[s]
            elif all(x == 0 for x in s):
                # H_a acts by mu(H_a) on each weight vector
                want = np.diag(rep.weight_values([Q(c) for c in a])).astype(complex)
            else:
                want = np.zeros_like(comm)
            assert np.max(np.abs(comm - want)) < 1e-10, (a, b)


@pytest.mark.parametrize("name", ["B3", "D4", "G2", "F4"])
def test_weights_match_character_table(name):
    rep = registered_representation(name)
    idx = {"B3": 1, "D4": 1, "G2": 1, "F4": 4}[name]
    tb = fundamental_characters(name, idx)
    want = sorted(w for w, m in tb.weights for _ in range(m))
    assert sorted(rep.basis_weights) == want


def test_an_p0_diagonal():
    # P_0 = diag(e^{n pi i/s}, e^{(n-2) pi i/s}, ...)
    for n in (2, 3, 4):
        rep = registered_representation(f"A{n}")
        s = n + 1
        want = np.diag([np.exp((n - 2 * j) * 1j * np.pi / s) for j in range(n + 1)])
        assert np.max(np.abs(rep.p0_matrix() - want)) < 1e-12


def test_p0_power_s_central():
    # P0^s = (-1)^n in the standard representation of sl_{n+1}
    for n in (2, 3):
        rep = registered_representation(f"A{n}")
        p0s = np.linalg.matrix_power(rep.p0_matrix(), n + 1)
        assert np.max(np.abs(p0s - (-1) ** n * np.eye(n + 1))) < 1e-12


def test_tau_rotates_root_matrices():
    # Ad(P0) e_a = e^{2 pi i ht(a)/s} e_a in the representation
    rep = registered_representation("B2")
    rs = rep.rs
    p0 = rep.p0_matrix()
    p0inv = np.linalg.inv(p0)
    s = rs.coxeter_number
    for a in rs.roots:
        lhs = p0 @ rep.root_matrix(a) @ p0inv
        rhs = np.exp(2j * np.pi * sum(a) / s) * rep.root_matrix(a)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_fundamental_representation_dimension_check():
    rep = fundamental_representation("B2", 2)
    assert rep.dim == 4


# -- float generators and the finite exponential series ------------------------------

SERIES_T = (0.7 - 0.3j, -1.9 + 2.2j, 3j)


def assert_series_matches_expm(x):
    series = NilpotentExp(x)
    for t in SERIES_T:
        want = expm(t * x)
        got = series(t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["A5", "A6"] + sorted(REGISTERED_DIMS))
def test_exp_series_matches_expm(name):
    # exp(t x) as sum_k t^k x^k/k! for every Chevalley generator, and the
    # cached Weyl representatives n_i = exp(-e) exp(f) exp(-e)
    rep = registered_representation(name)
    for i in range(rep.rs.rank):
        e, f = rep.e_float(i), rep.f_float(i)
        assert_series_matches_expm(e)
        assert_series_matches_expm(f)
        n_i = rep.section_factors(i)[1]
        want = expm(-e) @ expm(f) @ expm(-e)
        assert np.max(np.abs(n_i - want)) <= 1e-12 * np.max(np.abs(want))


def test_exp_series_rejects_non_nilpotent():
    with pytest.raises(ValueError, match="not nilpotent"):
        NilpotentExp(np.array([[0.0, 1.0], [1e-3, 0.0]]))


def test_float_generators_built_once_and_read_only():
    rep = registered_representation("B3")
    for get in (rep.e_float, rep.f_float):
        a = get(1)
        assert get(1) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    exp_e, n_i = rep.section_factors(1)
    assert rep.section_factors(1)[0] is exp_e
    assert not n_i.flags.writeable


def test_tampered_representation_raises_invariant_violation():
    rep = registered_representation("A2")
    e0 = rep.e_chev[0].copy()
    e0[0, 1] = Q(2)
    bad = Representation(
        rep.rs, rep.highest_weight, rep.dim, rep.basis_words, rep.basis_weights,
        (e0,) + rep.e_chev[1:], rep.f_chev,
    )
    with pytest.raises(InvariantViolation, match=r"\[e_0, f_0\]"):
        _verify_representation(bad)
    assert issubclass(InvariantViolation, AssertionError)
