import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction as Q
from pathlib import Path

import numpy as np
import pytest

import coxstokes
from character_reference import exact_ad
from coxstokes import chevalley, rootcore
from coxstokes.chevalley import (
    InvariantViolation,
    build_chevalley,
    verify_jacobi,
    verify_magnitudes,
)
from coxstokes.cli import STANDARD_TYPES
from coxstokes.rootcore import build_root_system
from coxstokes.spectrum import build_e_plus, default_coefficients

TYPES = ["A2", "A3", "B2", "B3", "C3", "D4", "G2", "F4"]


def neg(r):
    return tuple(-c for c in r)


def _column(alg, m, j):
    """The nonzero entries of column j of m, keyed by basis label."""
    return {alg.label(i): m[i, j] for i in np.flatnonzero(m[:, j])}


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_bracket_table_cases(name):
    alg = build_chevalley(name)
    rs = alg.rs
    l = rs.rank
    for a in rs.roots:
        ad = alg.ad({a: 1})
        # [e_a, e_{-a}] = H_a
        want = {("h", k + 1): c for k, c in enumerate(a) if c}
        assert _column(alg, ad, alg.root_index[neg(a)]) == want
        # [H_i, e_a] = -[e_a, H_i] = (a, alpha_i) e_a, exactly: the float of a
        # rational with denominator F
        ad = -ad
        for i in range(l):
            want = sum(c * rs.form[k][i] for k, c in enumerate(a))  # (a, alpha_i)
            assert _column(alg, ad, i) == ({("e", a): float(want)} if want else {})
    # e_psi is highest: [e_psi, e_{alpha_i}] = 0
    ad = alg.ad({rs.psi: 1})
    for i in range(l):
        assert _column(alg, ad, alg.root_index[rs.simple_roots[i]]) == {}


def test_a2_structure_constants():
    alg = build_chevalley("A2")
    t = alg.tables
    assert (t.den, t.surd) == (1, 1) and not t.n_surd.any()
    for x, y, n in (((1, 0), (0, 1), 1), ((0, 1), (1, 0), -1), ((-1, 0), (0, -1), -1)):
        i, j = alg.root_index[x] - 2, alg.root_index[y] - 2
        assert int(t.n_rat[i, j]) == n and alg.n_float(x, y) == n
    ad = alg.ad({(1, 0): 1})
    assert _column(alg, ad, alg.root_index[(0, 1)]) == {("e", (1, 1)): 1}


def _killing(alg, x, y):
    """tr(ad x ad y) as (a, b), a + b sqrt(d), for x, y given by their exact_ad dicts."""
    d = alg.tables.surd
    a = b = Q(0)
    for (i, j), (xa, xb) in x.items():
        ya, yb = y.get((j, i), (0, 0))
        a += xa * ya + d * xb * yb
        b += xa * yb + xb * ya
    return a, b


def _exact_ad_h(alg, i):
    """ad H_{alpha_i}: (b, alpha_i) on e_b, from the integer tables."""
    t, l = alg.tables, alg.rs.rank
    col = t.inner[:, alg.root_index[alg.rs.simple_roots[i]] - l]
    return {(l + b, l + b): (Q(int(c), t.form_den), Q(0)) for b, c in enumerate(col) if c}


def _kappa(alg, hs):
    """tr(ad H_1 ad H_1)/(alpha_1, alpha_1): the ratio of the Killing form to B."""
    kappa, surd = _killing(alg, hs[0], hs[0])
    assert surd == 0
    return kappa / alg.rs.form[0][0]


@pytest.mark.parametrize("name", TYPES)
def test_killing_proportional_to_form(name):
    # on the Cartan part, tr(ad H_i ad H_j) = kappa (alpha_i, alpha_j) exactly, kappa > 0
    alg = build_chevalley(name)
    l = alg.rs.rank
    hs = [_exact_ad_h(alg, i) for i in range(l)]
    kappa = _kappa(alg, hs)
    assert kappa > 0
    for i in range(l):
        for j in range(l):
            assert _killing(alg, hs[i], hs[j]) == (kappa * alg.rs.form[i][j], 0)


@pytest.mark.parametrize("name", TYPES)
def test_invariant_form_normalization(name):
    # B = Killing/kappa pairs opposite root vectors to 1, e_a with itself to 0,
    # and the root vectors with the Cartan part to 0
    alg = build_chevalley(name)
    rs = alg.rs
    hs = [_exact_ad_h(alg, i) for i in range(rs.rank)]
    kappa = _kappa(alg, hs)
    for a in rs.positive_roots:
        ea = exact_ad(alg, a)
        assert _killing(alg, ea, exact_ad(alg, neg(a))) == (kappa, 0), a
        assert _killing(alg, ea, ea) == (0, 0), a
        assert all(_killing(alg, ea, h) == (0, 0) for h in hs), a


def test_g2_adjoint_dimensions():
    alg = build_chevalley("G2")
    assert alg.dim == 14
    ad = alg.ad({(1, 0): 1})
    assert ad.shape == (14, 14)


def test_build_chevalley_takes_a_type_name_only():
    # a RootSystem is refused, not swapped for the cached standard algebra of its type
    rs = build_root_system("A2")
    tampered = dataclasses.replace(rs, r_coeffs=(Q(2), Q(1)))
    for arg in (tampered, rs, rs.type):
        with pytest.raises(TypeError, match="takes a type name"):
            build_chevalley(arg)
    assert build_chevalley("A2") is build_chevalley("A2")
    assert build_chevalley("A2").rs is rs


# -- sigma = -(diagram automorphism nu) and the Toda identity --------------------

def test_sigma_nu_examples():
    assert rootcore.diagram_involution(build_root_system("A4")) == (4, 3, 2, 1)
    assert rootcore.diagram_involution(build_root_system("B3")) == (1, 2, 3)
    assert rootcore.diagram_involution(build_root_system("D5")) == (1, 2, 3, 5, 4)


@pytest.mark.parametrize("name", TYPES)
def test_sigma_properties(name):
    # sigma(e_a) = -e_{nu a} on simple and highest root vectors extends to an
    # automorphism: nu is an involution that permutes the roots, fixes psi and
    # keeps |N(a, b)|, and sigma(E_+) = -E_+ for the nu-symmetric coefficients
    alg = build_chevalley(name)
    rs, t = alg.rs, alg.tables
    nu = rootcore.diagram_involution(rs)
    l = rs.rank
    assert all(nu[nu[i] - 1] == i + 1 for i in range(l))

    def act(r):
        return tuple(r[nu.index(i + 1)] for i in range(l))

    assert all(act(a) == rs.simple_roots[nu[i] - 1] for i, a in enumerate(rs.simple_roots))
    assert act(rs.psi) == rs.psi
    assert set(map(act, rs.roots)) == set(rs.roots)
    perm = np.array([alg.root_index[act(r)] - l for r in rs.roots])
    bracketable = t.sums >= 0
    assert (bracketable[np.ix_(perm, perm)] == bracketable).all()
    assert (perm[t.sums[bracketable]] == t.sums[np.ix_(perm, perm)][bracketable]).all()
    for n in (t.n_rat, t.n_surd):
        assert (np.abs(n[np.ix_(perm, perm)]) == np.abs(n)).all()
    coeffs = default_coefficients(alg)
    assert all(coeffs[i] == coeffs[nu[i - 1]] for i in range(1, l + 1))
    assert all(rs.r_coeffs[i] == rs.r_coeffs[nu[i] - 1] for i in range(l))


def toda_bracket_identity(alg, w, c_minus, c_plus):
    """Max-norm residual of [Ad(e^w)E_-, Ad(e^{-w})E_+] + sum c-c+ e^{-2a_i(w)} H_{a_i}.

    w is given in H_{a_i} coordinates; the bracket is ad(E_-) applied to the
    coordinate vector of E_+, so the residual vanishes exactly when the Toda
    zero-curvature right-hand side does.
    """
    rs = alg.rs
    l = rs.rank
    em = {}
    ep = np.zeros(alg.dim, dtype=np.complex128)
    hterm = np.zeros(alg.dim, dtype=np.complex128)
    for i, a in enumerate((rs.alpha0,) + rs.simple_roots):
        aw = float(rs.pairing(a, w))
        em[neg(a)] = complex(c_minus[i]) * np.exp(-aw)
        ep[alg.root_index[a]] = complex(c_plus[i]) * np.exp(-aw)
        hterm[:l] += complex(c_minus[i]) * complex(c_plus[i]) * np.exp(-2 * aw) * np.array(a)
    return float(np.abs(alg.ad(em) @ ep + hterm).max())


def test_toda_bracket_identity_at_zero():
    alg = build_chevalley("A2")
    # w = 0, all c = 1: [E-, E+] = -sum H_{alpha_i} over i = 0..l
    assert toda_bracket_identity(alg, [Q(0), Q(0)], [1, 1, 1], [1, 1, 1]) < 1e-12
    rs = alg.rs
    em = {rs.psi: 1, neg(rs.simple_roots[0]): 1, neg(rs.simple_roots[1]): 1}
    ep = np.zeros(alg.dim)
    for a in (neg(rs.psi),) + rs.simple_roots:
        ep[alg.root_index[a]] = 1
    out = alg.ad(em) @ ep
    want = np.zeros(alg.dim)
    want[:2] = [-1 + rs.psi[0], -1 + rs.psi[1]]  # -(H_1 + H_2 + H_0), H_0 = -H_psi
    assert (out == want).all()


@pytest.mark.parametrize("name", ["A2", "A3", "G2", "B3"])
def test_toda_bracket_identity_random(name):
    alg = build_chevalley(name)
    l = alg.rs.rank
    rng = random.Random(42)
    for _ in range(3):
        w = [Q(rng.randint(-3, 3), rng.randint(2, 5)) for _ in range(l)]
        c = [1.0 + 0.25 * rng.random() for _ in range(l + 1)]
        assert toda_bracket_identity(alg, w, c, c) < 1e-10


def _ad_reference(alg, terms):
    """Adjoint matrix of sum c_a e_a from exact_ad, one entry at a time: c_a times
    the float a + b sqrt(d) of each exact entry, as the Fraction/Sq scalars had it."""
    r = math.sqrt(alg.tables.surd)
    out = np.zeros((alg.dim, alg.dim), dtype=np.complex128)
    for root, c in terms.items():
        for key, (a, b) in exact_ad(alg, root).items():
            out[key] = c * (float(a) + float(b) * r)
    return out


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_ad_matches_bracket_reference(name):
    # byte for byte: every root vector, and E_+ with the spectrum's coefficients
    alg = build_chevalley(name)
    rs = alg.rs
    for r in rs.roots:
        assert alg.ad({r: 1}).tobytes() == _ad_reference(alg, {r: 1}).tobytes(), r
    terms = dict(zip((rs.alpha0,) + rs.simple_roots, map(complex, default_coefficients(alg))))
    assert alg.ad(terms).tobytes() == _ad_reference(alg, terms).tobytes()
    # at real coefficients build_e_plus keeps the real part, which is all of it
    ep = build_e_plus(alg)
    assert ep.ad.dtype == np.float64
    assert ep.ad.tobytes() == alg.ad(terms).real.tobytes()
    assert not alg.ad(terms).imag.any()


# -- golden gate and integer tables --------------------------------------------

def export_text(alg):
    """JSON table of N(a, b) over all bracketable root pairs, as exact strings.

    The text the structure-constant export wrote: pairs in row-major order of
    the canonical root order, N as its Fraction, or as Fraction*sqrt(d) when
    irrational.
    """
    t = alg.tables
    entries = []
    for i, j in zip(*np.nonzero(t.sums >= 0)):
        u, v = int(t.n_rat[i, j]), int(t.n_surd[i, j])
        n = f"{Q(v, t.den)}*sqrt({t.surd})" if v else f"{Q(u, t.den)}"
        entries.append({"alpha": list(t.root(i)), "beta": list(t.root(j)), "n": n})
    return json.dumps(
        {
            "schema_version": 1,
            "type": str(alg.rs.type),
            "normalization": "B(e_a, e_-a) = 1, extraspecial pairs positive",
            "entries": entries,
        },
        indent=1,
    )


def test_structure_constant_export():
    doc = json.loads(export_text(build_chevalley("G2")))
    assert doc["type"] == "G2" and doc["schema_version"] == 1
    entries = {(tuple(e["alpha"]), tuple(e["beta"])): e["n"] for e in doc["entries"]}
    assert entries[((1, 0), (0, 1))] == "1"
    # a genuinely irrational constant appears for short+short pairs
    assert any("sqrt(3)" in v for v in entries.values())
    a2doc = json.loads(export_text(build_chevalley("A2")))
    assert all("sqrt" not in e["n"] for e in a2doc["entries"])


# sha256 of the structure-constant export, recorded with the Fraction/Sq build
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
    text = export_text(build_chevalley(name))
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
    alg = build_chevalley(name)
    rs, t = alg.rs, alg.tables
    index = {r: i for i, r in enumerate(rs.roots)}
    zero = (0,) * rs.rank
    p, q = t.p, t.q
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
    # each table read-only, in the narrowest dtype that holds its largest magnitude
    t = build_chevalley(name).tables
    for arr in (t.roots, t.neg, t.sums, t.inner, t.n_rat, t.n_surd, t.q):
        assert arr.dtype == rootcore.working_dtype(int(np.abs(arr).max()), "x")
        assert not arr.flags.writeable
    assert t.p.dtype == t.q.dtype
    fam = name[0]
    assert t.surd == t.den == {"B": 2, "C": 2, "F": 2, "G": 3}.get(fam, 1)
    assert t.form_den == {"C": 2, "F": 2, "G": 3}.get(fam, 1)
    if t.surd == 1:
        assert not t.n_surd.any()
        assert set(np.unique(t.n_rat).tolist()) == {-1, 0, 1}


TABLE_FIELDS = ("roots", "neg", "sums", "inner", "n_rat", "n_surd", "q")

# sha256 of the tables cast to int64 (table_hash), recorded when every table
# was stored as int64: n = 702, 722, 722 and 684 roots, so n^2 and the flat
# indices into the tables are far past int16
LARGE_TABLE_SHA256 = {
    "A26": "16457930c750a1fe6e4c34743cbd5019846f83b2c65f88c9da40fab31eb58918",
    "B19": "b54b4335194c7facbd570f27e7287f7d1509973b4bb08a9da7aa261e11b0def7",
    "C19": "ac52d93938c076c8c8a1b9d0f162d32ca1f0725cebe36a12d839eab9a4358af1",
    "D19": "63039ae9bdd98203d6d582c2a7a5ac28fdde62a596ae9d172a71c55e3134e582",
}


def table_hash(t):
    h = hashlib.sha256()
    for field in TABLE_FIELDS:
        arr = getattr(t, field)
        h.update(field.encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(f"{t.form_den},{t.den},{t.surd}".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(LARGE_TABLE_SHA256))
def test_narrow_tables_equal_the_int64_tables_at_large_rank(name):
    # built and verified, not cached
    t = chevalley.ChevalleyAlgebra(build_root_system(name)).tables
    assert t.sums.dtype == np.int16 and t.n_rat.dtype == np.int8
    assert table_hash(t) == LARGE_TABLE_SHA256[name]


_MEMORY = """
import json, tracemalloc
from coxstokes import chevalley, rootcore
fields = %r
rootcore.build_root_system("E8")
tracemalloc.start()
e8 = chevalley.build_chevalley("E8").tables
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
b19 = chevalley.build_chevalley("B19").tables
print(json.dumps({
    "peak": peak,
    "e8": sum(getattr(e8, f).nbytes for f in fields),
    "b19": sum(getattr(b19, f).nbytes for f in fields),
}))
""" % (TABLE_FIELDS,)


def test_table_memory_guard():
    # int64 storage kept 2.21 MB for E8's tables and 20.0 MB for B19's, and
    # E8's build traced a 3.5 MB peak; narrow storage reads 0.33 MB, 3.0 MB
    # and about 1.4 MB
    src = str(Path(coxstokes.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _MEMORY],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    mb = 2**20
    assert got["e8"] <= 0.5 * mb, got
    assert got["b19"] <= 4 * mb, got
    assert got["peak"] <= 2.5 * mb, got


def _flip_one(t, value=-1):
    """Tables with one bracketable constant N(a, b) multiplied by value, in int64."""
    i, j = np.argwhere(t.sums >= 0)[len(t.neg) // 3]
    u, v = t.n_rat.astype(np.int64), t.n_surd.astype(np.int64)
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


def _jacobi_all_rows(t):
    """Reference: the Jacobi sweep over all |Phi| rows a, as verify_jacobi ran
    before it was cut to the 2l generator rows (and without its antisymmetry
    check)."""
    u, v, S, R, neg, inner = t.n_rat, t.n_surd, t.sums, t.roots, t.neg, t.inner
    d, D, F = t.surd, t.den, t.form_den
    n = len(neg)
    I, J = np.nonzero(S >= 0)
    K = neg[S[I, J]]
    for X in (u, v):
        if (X[I, J, None] * R[K] + X[J, K, None] * R[I] + X[K, I, None] * R[J]).any():
            raise InvariantViolation("Jacobi fails on the Cartan part")
    Sc = np.maximum(S, 0)

    def nn(X, Y, i):
        out = X[i][:, None] * Y[Sc[i]]
        out += X * Y[:, i][Sc]
        out += (X[:, i][:, None] * Y[Sc[:, i]]).T
        return out

    for i in range(n):
        ni = neg[i]
        rat = F * nn(u, u, i) + F * d * nn(v, v, i)
        rat[ni, :] += D * D * inner[:, i]
        rat[np.arange(n), neg] += D * D * inner[i]
        rat[:, ni] += D * D * inner[:, ni]
        if rat.any() or (nn(u, v, i) + nn(v, u, i)).any():
            raise InvariantViolation(f"Jacobi fails on row {t.root(i)}")


def _verdict(check, t):
    try:
        check(t)
    except InvariantViolation:
        return False
    return True


def _flip_triple(t, rng):
    """Tables with the twelve entries of one zero-sum triple (a, b, c) and its
    negative sign-flipped: magnitudes and both symmetries still hold."""
    a, b = map(int, rng.choice(np.argwhere(t.sums >= 0)))
    c = int(t.neg[t.sums[a, b]])
    u, v = t.n_rat.copy(), t.n_surd.copy()
    for x, y in ((a, b), (b, c), (c, a), (b, a), (c, b), (a, c)):
        for i, j in ((x, y), (t.neg[x], t.neg[y])):
            u[i, j], v[i, j] = -u[i, j], -v[i, j]
    return dataclasses.replace(t, n_rat=u, n_surd=v)


@pytest.mark.parametrize("name", ["B3", "C3", "G2", "F4", "D4", "E6"])
def test_generator_rows_agree_with_all_rows_on_sign_flips(name):
    t = build_chevalley(name).tables
    rng = np.random.default_rng(21)
    rejected = 0
    for _ in range(60):
        bad = _flip_triple(t, rng)
        verify_magnitudes(bad)
        full = _verdict(_jacobi_all_rows, bad)
        assert _verdict(verify_jacobi, bad) == full
        rejected += not full
    assert rejected > 0


@pytest.mark.parametrize("name", ["B3", "G2", "E6"])
def test_jacobi_check_catches_broken_antisymmetry(name):
    # N(b, a) and N(-b, -a) flipped together: magnitudes and N(-a,-b) = -N(a,b) still hold
    t = build_chevalley(name).tables
    a, b = np.argwhere(t.sums >= 0)[len(t.neg) // 2]
    u, v = t.n_rat.copy(), t.n_surd.copy()
    for i, j in ((b, a), (t.neg[b], t.neg[a])):
        u[i, j], v[i, j] = -u[i, j], -v[i, j]
    bad = dataclasses.replace(t, n_rat=u, n_surd=v)
    verify_magnitudes(bad)
    with pytest.raises(InvariantViolation, match="N\\(b, a\\) != -N\\(a, b\\)"):
        verify_jacobi(bad)


def test_bound_check_raises_before_int64_overflow():
    t = _flip_one(build_chevalley("A3").tables, 2**31)
    for check in (verify_magnitudes, verify_jacobi):
        with pytest.raises(InvariantViolation, match="overflow int64"):
            check(t)


def test_working_dtype_is_the_narrowest_that_holds_the_bound():
    # each dtype takes bounds below half its wrap point, as int64 takes INT_LIMIT
    widths = ((np.int8, 8), (np.int16, 16), (np.int32, 32), (np.int64, 64))
    assert rootcore.working_dtype(0, "x") == np.int8
    for (dtype, bits), wider in zip(widths, [w for w, _ in widths[1:]] + [None]):
        limit = 2 ** (bits - 2)
        assert rootcore.working_dtype(limit - 1, "x") == dtype
        if wider is not None:
            assert rootcore.working_dtype(limit, "x") == wider
    with pytest.raises(InvariantViolation, match="overflow int64"):
        rootcore.working_dtype(rootcore.INT_LIMIT, "x")


@pytest.mark.parametrize("w", [8, 16, 32])
def test_checks_do_not_wrap_in_their_working_dtype(w):
    # an inner product off by 2^w leaves a residual of 2^w: in a working dtype
    # one step narrower than the bound selects, it would wrap to 0 and pass
    t = build_chevalley("A3").tables
    i = int(np.flatnonzero(t.roots.sum(axis=1) == 1)[0])  # alpha_1, a generator row
    top = len(t.neg) - 1  # psi, last in the canonical order
    inner = t.inner.astype(np.int64)
    inner[top, i] += 2**w
    with pytest.raises(InvariantViolation, match="Jacobi fails"):
        verify_jacobi(dataclasses.replace(t, inner=inner))
    inner = t.inner.astype(np.int64)
    inner[top, top] += 2**w
    with pytest.raises(InvariantViolation, match="N\\^2 mismatch"):
        verify_magnitudes(dataclasses.replace(t, inner=inner))


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


def _brute_force_sums(roots):
    """neg and sums as lists, by a dict of coordinate tuples."""
    index = {r: i for i, r in enumerate(roots)}
    zero = (0,) * len(roots[0])
    R = np.array(roots)
    sums = [[-2 if s == zero else index.get(s, -1) for s in map(tuple, (a + R).tolist())]
            for a in R]
    return [index[neg(r)] for r in roots], sums


@pytest.mark.parametrize("name", STANDARD_TYPES + ("D3", "B5", "C5", "D6", "D7", "A27", "B20"))
def test_root_sums_match_a_brute_force_lookup(name):
    # A27 and B20 are the first A and B types whose keys with a digit offset
    # (2 base^l) pass 2^62; the wrapping keys need no bound, and no warning
    rs = build_root_system(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = chevalley.ChevalleyAlgebra(rs).tables
    assert (t.neg.tolist(), t.sums.tolist()) == _brute_force_sums(rs.roots)


def _with_key_base(monkeypatch, base):
    root_sums = chevalley._root_sums
    monkeypatch.setattr(chevalley, "_root_sums", lambda R, _: root_sums(R, base))


def test_shared_root_key_is_a_broken_invariant(monkeypatch):
    # base 1 keys a root by its height
    _with_key_base(monkeypatch, 1)
    with pytest.raises(InvariantViolation, match="two roots share a key in base 1"):
        chevalley.build_tables(build_root_system("A3"))


@pytest.mark.parametrize("name", ["A5", "B4", "G2", "E6"])
def test_aliased_sums_are_rejected_by_their_coordinates(name, monkeypatch):
    # in base 2 the roots keep distinct keys, but sums that are not roots
    # (2 a_1 in A5, whose key is a_2's) land on root keys
    rs = build_root_system(name)
    R = np.array(rs.roots).astype(np.uint64)
    keys = R @ (np.uint64(2) ** np.arange(rs.rank, dtype=np.uint64))
    neg_ref, sums_ref = _brute_force_sums(rs.roots)
    aliased = np.isin(keys[:, None] + keys, keys).sum() - (np.array(sums_ref) >= 0).sum()
    assert aliased > 0
    _with_key_base(monkeypatch, 2)
    t = chevalley.build_tables(rs)
    assert (t.neg.tolist(), t.sums.tolist()) == (neg_ref, sums_ref)
    std = build_chevalley(name).tables
    for field in TABLE_FIELDS:
        assert np.array_equal(getattr(t, field), getattr(std, field)), field
