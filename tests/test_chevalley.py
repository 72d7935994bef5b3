import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

import coxstokes
from coxstokes import rootcore
from coxstokes.chevalley import (
    ChevalleyAlgebra,
    InvariantViolation,
    build_chevalley,
    export_structure_constants,
    principal_tds,
    sigma_nu,
    tau_diagonal,
    toda_bracket_identity,
    verify_jacobi,
    verify_magnitudes,
)
from coxstokes.cli import STANDARD_TYPES
from coxstokes.rootcore import build_root_system
from coxstokes.scalars import Sq

TYPES = ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]


def neg(r):
    return tuple(-c for c in r)


@pytest.mark.parametrize("name", TYPES)
def test_bracket_table_cases(name):
    alg = build_chevalley(name)
    rs = alg.rs
    l = rs.rank
    # [e_a, e_{-a}] = H_a for every root
    for a in rs.roots[: 3 * l]:
        out = alg.bracket(alg.e(a), alg.e(neg(a)))
        assert out == alg.h([Q(c) for c in a])
    # [H_i, e_a] = (a, alpha_i) e_a
    for i in range(l):
        for a in rs.roots[:6]:
            out = alg.bracket(alg.h([Q(int(j == i)) for j in range(l)]), alg.e(a))
            want = rs.inner(a, rs.simple_roots[i])
            if want == 0:
                assert out == {}
            else:
                assert out == alg.e(a, want)
    # e_psi is highest: [e_psi, e_{alpha_i}] = 0
    for i in range(l):
        assert alg.bracket(alg.e(rs.psi), alg.e(rs.simple_roots[i])) == {}


def test_a2_structure_constants():
    alg = build_chevalley("A2")
    assert alg.nval((1, 0), (0, 1)) == Sq(1)
    assert alg.nval((0, 1), (1, 0)) == Sq(-1)
    assert alg.nval((-1, 0), (0, -1)) == Sq(-1)
    out = alg.bracket(alg.e((1, 0)), alg.e((0, 1)))
    assert out == alg.e((1, 1), Sq(1))


@pytest.mark.parametrize("name", TYPES)
def test_invariant_form_normalization(name):
    alg = build_chevalley(name)
    rs = alg.rs
    for a in rs.positive_roots:
        assert alg.form(alg.e(a), alg.e(neg(a))) == 1
        assert alg.form(alg.e(a), alg.e(a)) == 0
    # B restricted to the Cartan part is the normalized Gram matrix
    l = rs.rank
    for i in range(l):
        for j in range(l):
            hi = alg.h([Q(int(k == i)) for k in range(l)])
            hj = alg.h([Q(int(k == j)) for k in range(l)])
            assert alg.form(hi, hj) == rs.form[i][j]


def _killing(alg, x, y):
    """tr(ad x ad y), exact, from the bracket on basis elements."""
    ad_y = [alg.bracket(y, {j: 1}) for j in range(alg.dim)]
    tot = Sq(0)
    for j in range(alg.dim):
        for i, v in alg.bracket(x, {j: 1}).items():
            w = ad_y[i].get(j)
            if w is not None:
                tot = tot + v * w
    return tot


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_killing_proportional_to_form(name):
    alg = build_chevalley(name)
    rs = alg.rs
    l = rs.rank
    h0 = alg.h([Q(1)] + [Q(0)] * (l - 1))
    ratio = _killing(alg, h0, h0) / Sq(rs.form[0][0])
    assert ratio.rational() > 0  # raises unless the ratio is rational
    pairs = [
        (alg.h([Q(int(k == i)) for k in range(l)]), alg.h([Q(int(k == j)) for k in range(l)]), rs.form[i][j])
        for i in range(l)
        for j in range(l)
    ]
    pairs += [(alg.e(a), alg.e(neg(a)), Q(1)) for a in rs.positive_roots[: 2 * l]]
    for x, y, b in pairs:
        assert _killing(alg, x, y) == ratio * Sq(b)


def test_g2_adjoint_dimensions():
    alg = build_chevalley("G2")
    assert alg.dim == 14
    ad = alg.ad_dense(alg.e((1, 0)))
    assert ad.shape == (14, 14)


@pytest.mark.parametrize("name", TYPES)
def test_principal_tds(name):
    alg = build_chevalley(name)
    l = alg.rs.rank
    principal_tds(alg)                       # default floats a_i = sqrt(r_i)
    tds = principal_tds(alg, [Q(1)] * l)     # exact variant
    # f0 recovers r_i when a_i = 1
    for i, a in enumerate(alg.rs.simple_roots):
        idx = alg.root_index[neg(a)]
        assert tds.f0[idx] == Sq(alg.rs.r_coeffs[i])
    with pytest.raises(ValueError):
        principal_tds(alg, [Q(0)] * l)


def test_tds_relations_fail_for_tampered_f0():
    # wrong r_i give a wrong x0 = sum r_i H_i and f0 = sum (r_i/a_i) e_{-a_i};
    # [x0, e0] = e0 then fails, and principal_tds's own check must say so
    rs = build_root_system("A2")
    alg = ChevalleyAlgebra(dataclasses.replace(rs, r_coeffs=(Q(2), Q(1))))
    with pytest.raises(InvariantViolation, match="failed exactly"):
        principal_tds(alg, [Q(1), Q(1)])
    with pytest.raises(InvariantViolation, match="failed numerically"):
        principal_tds(alg)


@pytest.mark.parametrize("name", TYPES)
def test_tau_diagonal(name):
    alg = build_chevalley(name)
    rs = alg.rs
    s = rs.coxeter_number
    tau = tau_diagonal(alg)
    assert np.allclose(tau**s, 1)
    # tau(e_psi) = e^{2 pi i (s-1)/s} e_psi
    idx = alg.root_index[rs.psi]
    assert abs(tau[idx] - np.exp(2j * np.pi * (s - 1) / s)) < 1e-12
    # Ad(P0) E_+ = e^{2 pi i/s} E_+ for E_+ supported on heights ht = 1 and 1-s
    phases = {tau[alg.root_index[a]] for a in rs.simple_roots}
    phases.add(tau[alg.root_index[neg(rs.psi)]] * np.exp(-0j))
    rot = np.exp(2j * np.pi / s)
    assert all(abs(p - rot) < 1e-12 for p in phases)


def test_sigma_nu_examples():
    a4 = sigma_nu(build_chevalley("A4"))
    assert a4.nu == (4, 3, 2, 1)
    b3 = sigma_nu(build_chevalley("B3"))
    assert b3.nu == (1, 2, 3)
    d5 = sigma_nu(build_chevalley("D5"))
    assert d5.nu == (1, 2, 3, 5, 4)


@pytest.mark.parametrize("name", TYPES)
def test_sigma_properties(name):
    alg = build_chevalley(name)
    rs = alg.rs
    sd = sigma_nu(alg)
    l = rs.rank
    # sign -1 on simple/highest root vectors (sigma_nu raises unless nu is an involution)
    for i in range(l):
        img, sign = sd.signs[rs.simple_roots[i]]
        assert img == rs.simple_roots[sd.nu[i] - 1] and sign == -1
    assert sd.signs[rs.psi] == (rs.psi, -1)
    assert sd.signs[neg(rs.psi)] == (neg(rs.psi), -1)
    # sigma(E_+) = -E_+ for nu-symmetric coefficients, at the generator level
    coeffs = {i: 1.0 + 0.1 * min(i, sd.nu[i - 1]) for i in range(1, l + 1)}
    for i in range(1, l + 1):
        assert coeffs[i] == coeffs[sd.nu[i - 1]]
        img, sign = sd.signs[rs.simple_roots[i - 1]]
        assert sign * coeffs[i] == -coeffs[sd.nu[i - 1]]


def test_toda_bracket_identity_at_zero():
    alg = build_chevalley("A2")
    # w = 0, all c = 1: [E-, E+] = -sum H_{alpha_i} over i = 0..l
    assert toda_bracket_identity(alg, [Q(0), Q(0)], [1, 1, 1], [1, 1, 1]) < 1e-12
    rs = alg.rs
    em = alg.add(alg.e(rs.psi), alg.e(neg(rs.simple_roots[0])), alg.e(neg(rs.simple_roots[1])))
    ep = alg.add(alg.e(neg(rs.psi)), alg.e(rs.simple_roots[0]), alg.e(rs.simple_roots[1]))
    out = alg.bracket(em, ep)
    want = alg.h([Q(-1) + rs.psi[0], Q(-1) + rs.psi[1]])  # -(H_1 + H_2 + H_0), H_0 = -H_psi
    assert out == want


@pytest.mark.parametrize("name", ["A2", "A3", "G2", "B3"])
def test_toda_bracket_identity_random(name):
    alg = build_chevalley(name)
    l = alg.rs.rank
    rng = random.Random(42)
    for _ in range(3):
        w = [Q(rng.randint(-3, 3), rng.randint(2, 5)) for _ in range(l)]
        c = [1.0 + 0.25 * rng.random() for _ in range(l + 1)]
        assert toda_bracket_identity(alg, w, c, c) < 1e-10


def test_structure_constant_export():
    alg = build_chevalley("G2")
    doc = json.loads(export_structure_constants(alg))
    assert doc["type"] == "G2" and doc["schema_version"] == 1
    entries = {(tuple(e["alpha"]), tuple(e["beta"])): e["n"] for e in doc["entries"]}
    assert entries[((1, 0), (0, 1))] == "1"
    # a genuinely irrational constant appears for short+short pairs
    assert any("sqrt(3)" in v for v in entries.values())
    a2doc = json.loads(export_structure_constants(build_chevalley("A2")))
    assert all("sqrt" not in e["n"] for e in a2doc["entries"])


def test_bracket_agrees_with_adjoint_matrix():
    import numpy as np

    alg = build_chevalley("B2")
    rng = random.Random(9)
    dim = alg.dim
    x = {rng.randrange(dim): complex(1.0, 0.5), rng.randrange(dim): 2.0}
    y = {rng.randrange(dim): complex(0.0, -1.5), rng.randrange(dim): 1.0}
    ad = alg.ad_dense(x)
    vy = np.zeros(dim, dtype=complex)
    for i, c in y.items():
        vy[i] += c
    want = ad @ vy
    got = np.zeros(dim, dtype=complex)
    for i, c in alg.bracket(x, y).items():
        got[i] = complex(c)
    assert np.max(np.abs(got - want)) < 1e-12


def test_principal_element():
    import numpy as np
    from coxstokes.chevalley import principal_element

    alg = build_chevalley("A2")
    pe = principal_element(alg)
    assert pe.order == 3
    assert np.allclose(pe.tau**3, 1)
    want = np.diag([np.exp(2j * np.pi / 3), 1, np.exp(-2j * np.pi / 3)])
    assert np.max(np.abs(pe.matrix - want)) < 1e-12
    # E7 has no registered representation; adjoint phases only
    pe7 = principal_element(build_chevalley("E7"))
    assert pe7.matrix is None and pe7.order == 18


def test_involution_rules():
    from coxstokes.chevalley import involution_rules

    alg = build_chevalley("A2")
    rules = involution_rules(alg)
    rs = alg.rs
    a1 = rs.simple_roots[0]
    # rho: e_a -> -e_{-a};  theta fixes the split generators
    assert rules["rho"]["action"][("e", a1)] == (("e", (-1, 0)), -1)
    assert rules["theta"]["action"][("e", a1)] == (("e", a1), 1)
    # chi = sigma rho: e_{alpha_1} -> +e_{-alpha_{nu(1)}} (matches Delta X-bar Delta)
    assert rules["chi"]["action"][("e", a1)] == (("e", (0, -1)), 1)
    assert rules["chi"]["action"][("h", 1)] == (("h", 2), -1)
    for inv in rules.values():
        assert inv["conjugate_linear"]


# -- golden gate and integer tables --------------------------------------------

# sha256 of export_structure_constants, recorded with the Fraction/Sq build
# that preceded the integer tables
EXPORT_SHA256 = {
    "A2": "d260cdba1e337d7ca416f35c0a4621210c6f8a38493b6550f93568b8618cd788",
    "A3": "8d956fe3059c55e6b838be0e2cf71ad8630a0d9ca6afc4ace9b2f542f7bd22bd",
    "A4": "5b808078a072e6b78d8477f1d7978886b9b8f18dd1076f8522267d716471b531",
    "A5": "4d459d1d7aff95f8edb38447b82e6276ba519f0ef15cf8a8906abc133f295a49",
    "A6": "741cd7b1bc2df9fc75381da67f81f779cdf2190e4e4b21c0d89a73c9f9bb9f99",
    "B2": "9e82e3e6b327bd6f5ebeb78365065ba3a9e83e3ca73a9f6ab5b6cf9e9ba80d77",
    "B3": "80ff3d019721c38b98713bb0509d09310e25e3aff11e77e896ce11493bac0ff4",
    "B4": "ca4f7af20f03afa26758b72b27e3acacb31e9005f4be23bf525fd89f553766ac",
    "C3": "031e0fca9cd5aaa34d8f72aa8821cf5a44ce149091ace114616b79f758d66ed1",
    "D4": "f18c08a15b5e8fddc478393f660346a29b5ca2487f3b3a0aff6860eff3b7baf7",
    "D5": "91fe9f0ae829125b5cb9d09638002cfe3b3427603eef72b73f501a95edddc104",
    "G2": "fd828948a4575517f7b4c6ba9cc716409cdc3f137098901e5697c28ce22b1c18",
    "F4": "56d733493d5bb4a2038f22b9d8a179a4541078517eef80ca5b8db864cbe0e01d",
    "E6": "bd12d5911afcc5b3f9432d9a7480380225965394bb1d4e335e0fff58ba25c972",
    "E7": "ea9d3d66781b4570858c10cf8a89e6c72f207bb03466025d87ad8113ba3cd861",
    "E8": "92e0f21eab8ccd95a2d51a9d805533875f859d6f3fb5eb182ca93afc47225d03",
}


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_structure_constant_export_golden(name):
    text = export_structure_constants(build_chevalley(name))
    assert hashlib.sha256(text.encode()).hexdigest() == EXPORT_SHA256[name]


def _tuple_strings(rs, a, b):
    """Root-string numbers (p, q) of the a-string through b, by tuple arithmetic."""
    out = []
    for sign in (-1, 1):
        k, cur = 0, tuple(y + sign * x for x, y in zip(a, b))
        while rs.is_root(cur):
            k += 1
            cur = tuple(y + sign * x for x, y in zip(a, cur))
        out.append(k)
    return tuple(out)


@pytest.mark.parametrize("name", TYPES)
def test_root_tables_match_tuple_arithmetic(name):
    from coxstokes.chevalley import _root_strings

    alg = build_chevalley(name)
    rs, t = alg.rs, alg.tables
    index = {r: i for i, r in enumerate(rs.roots)}
    zero = (0,) * rs.rank
    p, q = _root_strings(t.sums, t.neg)
    assert [tuple(r) for r in t.roots.tolist()] == list(rs.roots)
    for i, a in enumerate(rs.roots):
        assert t.neg[i] == index[neg(a)]
        for j, b in enumerate(rs.roots):
            s = tuple(x + y for x, y in zip(a, b))
            assert t.sums[i, j] == (-2 if s == zero else index.get(s, -1))
            assert Q(int(t.inner[i, j]), t.form_den) == rs.inner(a, b)
            assert (p[i, j], q[i, j]) == _tuple_strings(rs, a, b)


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_tables_are_integer_and_encoding_per_family(name):
    t = build_chevalley(name).tables
    for arr in (t.roots, t.neg, t.sums, t.inner, t.n_rat, t.n_surd):
        assert arr.dtype == np.int64
    fam = name[0]
    assert t.surd == t.den == {"B": 2, "C": 2, "F": 2, "G": 3}.get(fam, 1)
    assert t.form_den == {"C": 2, "F": 2, "G": 3}.get(fam, 1)
    if t.surd == 1:
        assert not t.n_surd.any()
        assert set(np.unique(t.n_rat).tolist()) == {-1, 0, 1}


def _flip_one(t, value=-1):
    """Tables with one bracketable constant N(a, b) multiplied by value."""
    i, j = np.argwhere(t.sums >= 0)[len(t.neg) // 3]
    u, v = t.n_rat.copy(), t.n_surd.copy()
    u[i, j] *= value
    v[i, j] *= value
    return dataclasses.replace(t, n_rat=u, n_surd=v)


@pytest.mark.parametrize("name", ["B3", "E6"])
def test_jacobi_check_catches_one_flipped_sign(name):
    t = build_chevalley(name).tables
    verify_jacobi(t)
    with pytest.raises(InvariantViolation, match="Jacobi fails"):
        verify_jacobi(_flip_one(t))


@pytest.mark.parametrize("name", ["B3", "E6"])
def test_magnitude_check_catches_one_doubled_constant(name):
    t = build_chevalley(name).tables
    verify_magnitudes(t)
    with pytest.raises(InvariantViolation, match="N\\^2 mismatch"):
        verify_magnitudes(_flip_one(t, 2))


def test_magnitude_check_catches_broken_negation_symmetry():
    t = build_chevalley("G2").tables
    i, j = np.argwhere(t.sums >= 0)[0]
    u, v = t.n_rat.copy(), t.n_surd.copy()
    ni, nj = t.neg[i], t.neg[j]
    u[ni, nj], v[ni, nj] = u[i, j], v[i, j]  # N(-a,-b) = +N(a,b): magnitudes still fine
    with pytest.raises(InvariantViolation, match="N\\(-a,-b\\)"):
        verify_magnitudes(dataclasses.replace(t, n_rat=u, n_surd=v))


def test_bound_check_raises_before_int64_overflow():
    t = _flip_one(build_chevalley("A3").tables, 2**31)
    for check in (verify_magnitudes, verify_jacobi):
        with pytest.raises(InvariantViolation, match="overflow int64"):
            check(t)


_UNDER_O = """
import dataclasses
from fractions import Fraction as Q
import numpy as np
from coxstokes.chevalley import InvariantViolation, build_chevalley, verify_jacobi
from coxstokes.weightrep import Representation, _verify_representation, registered_representation

assert not __debug__
t = build_chevalley("B3").tables
i, j = np.argwhere(t.sums >= 0)[0]
u = t.n_rat.copy()
u[i, j] *= -1
try:
    verify_jacobi(dataclasses.replace(t, n_rat=u))
except InvariantViolation:
    print("jacobi raised")
rep = registered_representation("A2")
e0 = rep.e_chev[0].copy()
e0[0, 1] = Q(2)
bad = Representation(
    rep.rs, rep.highest_weight, rep.dim, rep.basis_words, rep.basis_weights,
    (e0,) + rep.e_chev[1:], rep.f_chev,
)
try:
    _verify_representation(bad)
except InvariantViolation:
    print("representation raised")
"""


def test_tamper_checks_raise_under_python_O():
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", _UNDER_O],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == ["jacobi raised", "representation raised"]


def test_root_data_checks_are_named_exceptions():
    assert rootcore.InvariantViolation is InvariantViolation
    a3 = build_root_system("A3")
    skewed = dataclasses.replace(a3, r_coeffs=(Q(1), Q(2), Q(3)))
    with pytest.raises(InvariantViolation, match="alpha_1"):
        rootcore.dual_data(skewed)
    with pytest.raises(InvariantViolation, match="nu-symmetric"):
        sigma_nu(ChevalleyAlgebra(skewed))
