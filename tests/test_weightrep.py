import math
from fractions import Fraction as Q

import numpy as np
import pytest
from scipy.linalg import expm

from character_reference import adjoint_section
from coxstokes.characters import _table_pairing, fundamental_characters, weight_pairing
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
    for n in range(2, 7):
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
                assert np.array_equal(m, want), (n, a, b)


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
                want = alg.n_float(a, b) * mats[s]
            elif all(x == 0 for x in s):
                # H_a acts by mu(H_a) on each weight vector
                want = np.diag(rep.weight_values([Q(c) for c in a])).astype(complex)
            else:
                want = np.zeros_like(comm)
            assert np.max(np.abs(comm - want)) < 1e-10, (a, b)


REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")


def surd_float(t, i, j):
    """N(a, b) at root indices i, j as the Fraction/Sq scalars made it a float:
    float(u/D) + float(v/D) sqrt(d)."""
    u, v = int(t.n_rat[i, j]), int(t.n_surd[i, j])
    return float(Q(u, t.den)) + float(Q(v, t.den)) * math.sqrt(t.surd)


def reference_root_matrix(rep, root, memo):
    """rep.root_matrix as it was built with N read as a Q(sqrt d) scalar (surd_float)."""
    if root not in memo:
        rs, alg = rep.rs, rep.algebra()
        ht = sum(root)
        if ht == 1 and root in rs.simple_roots:
            i = rs.simple_roots.index(root)
            memo[root] = float(rs.inner(root, root) / 2) * rep.e_float(i).astype(np.complex128)
        elif ht == -1 and tuple(-c for c in root) in rs.simple_roots:
            memo[root] = rep.f_float(rs.simple_roots.index(tuple(-c for c in root))).astype(
                np.complex128
            )
        else:
            sign = 1 if ht > 0 else -1
            for aj in rs.simple_roots:
                step = aj if sign > 0 else tuple(-c for c in aj)
                rest = tuple(r - s_ for r, s_ in zip(root, step))
                if rs.is_root(rest):
                    a = reference_root_matrix(rep, step, memo)
                    b = reference_root_matrix(rep, rest, memo)
                    i, j = alg.root_index[step] - rs.rank, alg.root_index[rest] - rs.rank
                    memo[root] = (a @ b - b @ a) / complex(surd_float(alg.tables, i, j))
                    break
    return memo[root]


@pytest.mark.parametrize("name", REGISTERED)
def test_root_matrices_read_n_from_the_tables_bit_for_bit(name):
    # the float N of the integer tables is float(u/D) + float(v/D) sqrt(d) for
    # every bracketed pair, so every root matrix is bitwise the one the Sq path built
    rep = registered_representation(name)
    alg, memo = rep.algebra(), {}
    for root in rep.rs.roots:
        want = reference_root_matrix(rep, root, memo)
        assert rep.root_matrix(root).tobytes() == want.tobytes(), root
    t = alg.tables
    a, b = np.nonzero(t.sums >= 0)
    assert t.n_float(a, b).tolist() == [surd_float(t, i, j) for i, j in zip(a, b)]


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
    for n in range(2, 7):
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
    p0 = rep.p0_matrix()
    assert rep.p0_matrix() is p0 and not p0.flags.writeable


@pytest.mark.parametrize("name", sorted(REGISTERED_DIMS))
def test_weight_values_equal_exact_pairing(name):
    # the integer table gives the same float as rounding the Fraction pairing once:
    # for the registered basis weights, the fundamental character tables (those
    # of dimension <= 300, which leaves out E6's 351s and 2925 and F4's 1274,
    # to keep the test under 1 s) and the adjoint weights, the roots then l zeros
    rep = registered_representation(name)
    rs = rep.rs
    rng = np.random.default_rng(7)
    points = [rs.x0_coords] + [
        tuple(Q(int(a), int(b)) for a, b in zip(rng.integers(-40, 41, rs.rank),
                                                 rng.integers(1, 25, rs.rank)))
        for _ in range(3)
    ]
    # denominators past 2^53 take the Python-int path: floats at their binary
    # value, and 3^40
    points += [tuple(float(c) for c in points[1]), tuple(c + Q(1, 3**40) for c in points[2])]
    tables = [k for k in range(1, rs.rank + 1) if fundamental_characters(name, k).dim <= 300]
    for h in points:
        want = [float(weight_pairing(rs, w, h)) for w in rep.basis_weights]
        assert rep.weight_values(h).tolist() == want
        for k in tables:
            weights = fundamental_characters(name, k).weights
            want = [float(weight_pairing(rs, w, h)) for w, _ in weights]
            assert _table_pairing(name, k)[0](h).tolist() == want, k
        want = [float(rs.pairing(r, h)) for r in rs.roots] + [0.0] * rs.rank
        assert adjoint_section(name).weight_values(h).tolist() == want


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


def test_oversized_generator_entries_raise_before_int64_overflow():
    rep = registered_representation("A2")
    e0 = rep.e_chev[0].copy()
    e0[0, 1] = Q(2**40)
    bad = Representation(
        rep.rs, rep.highest_weight, rep.dim, rep.basis_words, rep.basis_weights,
        (e0,) + rep.e_chev[1:], rep.f_chev,
    )
    with pytest.raises(InvariantViolation, match="overflow int64"):
        _verify_representation(bad)
