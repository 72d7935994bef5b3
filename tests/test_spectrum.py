import dataclasses
import json
import zlib

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from coxstokes import cli
from coxstokes.chevalley import ChevalleyAlgebra, build_chevalley
from coxstokes.cli import STANDARD_TYPES
from coxstokes.coxeter import bipartition, coxeter_plane
from coxstokes.rootcore import build_root_system
from coxstokes.spectrum import (
    RAY_TOL,
    ROTATION_TOL,
    ZERO_TOL,
    RegularityError,
    SpectrumMismatch,
    ad_spectrum,
    adjoint_eigenvalues,
    build_e_plus,
    default_coefficients,
    graded_singular_values,
    match_plane,
    parity_blocks,
    ray_report,
)

SMALL = ["A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]
MATCHABLE = ["A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4"]


def test_a2_adjoint_and_kernel():
    alg = build_chevalley("A2")
    ep = build_e_plus(alg)
    assert ep.ad.shape == (8, 8)
    sr = ad_spectrum(ep)
    assert sr.zero_multiplicity == 2
    assert len(sr.rays) == 6 and all(c == 1 for _, c in sr.rays)


def test_a3_ray_count():
    sr = ad_spectrum(build_e_plus(build_chevalley("A3")))
    assert len(sr.rays) == 8


def test_g2_kernel():
    ep = build_e_plus(build_chevalley("G2"))
    sr = ad_spectrum(ep)
    assert sr.zero_multiplicity == 2


def test_zero_coefficient_rejected():
    alg = build_chevalley("A2")
    with pytest.raises(ValueError):
        build_e_plus(alg, [0.0, 1.0, 1.0])


def test_scaling_linearity():
    alg = build_chevalley("A3")
    base = ad_spectrum(build_e_plus(alg)).nonzero
    lam = 1.5 - 0.25j
    scaled = ad_spectrum(
        build_e_plus(alg, [lam * c for c in default_coefficients(alg)])
    ).nonzero
    a = np.sort_complex(lam * base)
    b = np.sort_complex(scaled)
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert cost[ri, ci].max() < 1e-9


def _random_coefficients(name):
    """10 complex coefficient vectors, kept safely away from zero."""
    rs = build_chevalley(name).rs
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    return [rng.normal(size=rs.rank + 1) + 1j * rng.normal(size=rs.rank + 1) + 2.0
            for _ in range(10)]


@pytest.mark.parametrize("name", SMALL)
def test_rotation_closure_and_regularity_random(name):
    alg = build_chevalley(name)
    rs = alg.rs
    for coeffs in _random_coefficients(name):
        ep = build_e_plus(alg, coeffs)   # raises RegularityError on kernel mismatch
        sr = ad_spectrum(ep)
        assert sr.zero_multiplicity == rs.rank
        assert len(sr.rays) == 2 * rs.coxeter_number


@pytest.mark.parametrize("name", MATCHABLE)
def test_match_plane_default_coefficients(name):
    alg = build_chevalley(name)
    plane = coxeter_plane(alg.rs, bipartition(alg.rs))
    sr = ad_spectrum(build_e_plus(alg))
    m = match_plane(sr, plane)
    assert m.max_residual < 1e-6
    # per-ray eigenvalue count equals |R(d_i)| as multisets of (sorted) counts
    assert sorted(c for _, c in sr.rays) == sorted(len(a) for a in plane.assignment)


def test_negated_coefficients_flip_kappa():
    # negating E_+ rotates the spectrum by pi; -kappa must still match exactly
    from scipy.optimize import linear_sum_assignment

    alg = build_chevalley("B2")
    plane = coxeter_plane(alg.rs, bipartition(alg.rs))
    m1 = match_plane(ad_spectrum(build_e_plus(alg)), plane)
    coeffs = [-c for c in default_coefficients(alg)]
    sr2 = ad_spectrum(build_e_plus(alg, coeffs))
    coords = np.array([plane.coord[r] for r in sorted(plane.coord)])
    cost = np.abs(-m1.kappa * coords[:, None] - sr2.nonzero[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert cost[ri, ci].max() < 1e-8 * np.max(np.abs(sr2.nonzero))


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_per_ray_counts_larger_types(name):
    alg = build_chevalley(name)
    plane = coxeter_plane(alg.rs, bipartition(alg.rs))
    sr = ad_spectrum(build_e_plus(alg))
    assert sorted(c for _, c in sr.rays) == sorted(len(a) for a in plane.assignment)


def _checked_spectrum(ep, eigs):
    """The ray checks on the eigenvalues eigs of ad(E_+).

    Where ad_spectrum takes the dense route, through ad_spectrum of a
    diagonal ad holding them.  Where it takes the parity route, which refuses
    a diagonal ad as off the grading, through the ray checker it calls.
    """
    if parity_blocks(ep.alg) is None:
        return ad_spectrum(dataclasses.replace(ep, ad=np.diag(eigs)))
    return ray_report(eigs, ep.alg.rs.coxeter_number, ep.alg.rs.rank)


@pytest.mark.parametrize("name", ["A2", "D4", "G2"])
def test_turned_eigenvalue_against_the_ray_bound(name):
    # the true spectrum with one eigenvalue turned off its ray
    ep = build_e_plus(build_chevalley(name))
    sr = ad_spectrum(ep)
    eigs = np.concatenate([np.zeros(sr.zero_multiplicity), sr.nonzero])
    i = sr.zero_multiplicity + len(sr.nonzero) // 3

    def turned(angle):
        e = eigs.copy()
        e[i] *= np.exp(1j * angle)
        return _checked_spectrum(ep, e)

    with pytest.raises(SpectrumMismatch, match="not within"):
        turned(10 * RAY_TOL)
    near = turned(RAY_TOL / 10)
    assert [c for _, c in near.rays] == [c for _, c in sr.rays]
    assert np.allclose([a for a, _ in near.rays], [a for a, _ in sr.rays], rtol=0, atol=RAY_TOL)


def _tampered_spectrum(ep, sr, tamper):
    """The ray checks on sr's spectrum with its fullest ray's largest
    eigenvalue tampered (the i-th of sr.nonzero)."""
    counts = [c for _, c in sr.rays]
    k = int(np.argmax(counts))
    i = sr.zero_multiplicity + sum(counts[:k + 1]) - 1
    eigs = np.concatenate([np.zeros(sr.zero_multiplicity), sr.nonzero])
    eigs[i] = tamper(eigs[i])
    return _checked_spectrum(ep, eigs)


@pytest.mark.parametrize("name", ["B3", "D4", "E6"])
def test_tampered_eigenvalue_fails_the_ray_pairing(name):
    # rays are paired with rays: the rotation e^{2 pi i/s} turns ray k onto
    # ray k + 2, and within a pair of rays eigenvalues pair by modulus
    ep = build_e_plus(build_chevalley(name))
    sr = ad_spectrum(ep)
    s = ep.alg.rs.coxeter_number
    assert max(c for _, c in sr.rays) >= 2    # the source ray keeps an eigenvalue
    with pytest.raises(SpectrumMismatch, match="ray counts"):   # onto the next ray
        _tampered_spectrum(ep, sr, lambda z: z * np.exp(1j * np.pi / s))
    with pytest.raises(SpectrumMismatch, match="not within"):
        _tampered_spectrum(ep, sr, lambda z: z * np.exp(10j * RAY_TOL))
    with pytest.raises(SpectrumMismatch, match="^nonzero spectrum not closed"):
        _tampered_spectrum(ep, sr, lambda z: z * (1 + 10 * ROTATION_TOL))
    near = _tampered_spectrum(ep, sr, lambda z: z * (1 + ROTATION_TOL / 10))
    assert [c for _, c in near.rays] == [c for _, c in sr.rays]


def _plane_and_spectrum(name):
    alg = build_chevalley(name)
    return coxeter_plane(alg.rs, bipartition(alg.rs)), ad_spectrum(build_e_plus(alg))


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_match_plane_equals_brute_force_search(name):
    # match_plane seeds kappa once, from one eigenvalue on the anchor's wheel;
    # the search over every such seed finds the match to rounding at each of
    # them, so the choice of seed cannot decide the verdict
    plane, sr = _plane_and_spectrum(name)
    nz = sr.nonzero
    coords = np.array([plane.coord[r] for r in sorted(plane.coord)])
    scale = np.max(np.abs(nz))
    anchor = max((plane.coord[r] for r in plane.assignment[0]), key=abs)
    wheel = np.abs(np.abs(nz) / scale - abs(anchor) / np.max(np.abs(coords))) < 1e-9
    assert wheel.sum() >= plane.num_rays // 2  # at least the anchor's gamma-orbit
    for seed in nz[wheel]:
        cost = np.abs(seed / anchor * coords[:, None] - nz[None, :])
        ri, ci = linear_sum_assignment(cost)
        assert cost[ri, ci].max() < 1e-13 * scale
    assert match_plane(sr, plane).max_residual < 1e-13 * scale


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_kappa_equals_scipys_assignment_polish(name):
    # the reference: the same seed, scipy's optimal assignment of all roots to
    # all eigenvalues, and the least-squares kappa over it
    plane, sr = _plane_and_spectrum(name)
    nz = sr.nonzero
    coords = np.array([plane.coord[r] for r in sorted(plane.coord)])
    anchor = max((plane.coord[r] for r in plane.assignment[0]), key=abs)
    scale = np.max(np.abs(nz))
    seed = nz[np.argmin(np.abs(np.abs(nz) / abs(anchor) * np.max(np.abs(coords)) - scale))]
    ri, ci = linear_sum_assignment(np.abs(seed / anchor * coords[:, None] - nz[None, :]))
    a, b = coords[ri], nz[ci]
    want = np.vdot(a, b) / np.vdot(a, a)
    m = match_plane(sr, plane)
    assert abs(m.kappa - want) <= 1e-15 * abs(want)
    cost = np.abs(want * coords[:, None] - nz[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert abs(m.max_residual - cost[ri, ci].max()) <= 1e-15 * scale


def test_perturbed_eigenvalue_fails_match():
    plane, sr = _plane_and_spectrum("D4")
    nz = sr.nonzero.copy()
    nz[5] *= 1 + 1e-4
    with pytest.raises(SpectrumMismatch, match="match residual"):
        match_plane(dataclasses.replace(sr, nonzero=nz), plane)


def _tampered_plane(plane):
    """The plane with one root moved from ray d_2 to ray d_3, coordinates unchanged."""
    assign = list(plane.assignment)
    root = min(assign[1])
    assign[1] = assign[1] - {root}
    assign[2] = assign[2] | {root}
    return dataclasses.replace(plane, assignment=tuple(assign))


def test_tampered_ray_counts_fail_match():
    plane, sr = _plane_and_spectrum("D4")
    with pytest.raises(SpectrumMismatch, match="per-ray counts"):
        match_plane(sr, _tampered_plane(plane))


def test_verify_reports_tampered_ray_counts(tmp_path, monkeypatch):
    real = cli.coxeter_plane
    monkeypatch.setattr(cli, "coxeter_plane", lambda rs, bip: _tampered_plane(real(rs, bip)))
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--type", "D4", "--json-out", str(out)]) == cli.EXIT_VERIFY
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert not checks["apposition_spectrum"]["passed"]
    assert "per-ray counts" in checks["apposition_spectrum"]["detail"]


def _dense_kernel(ad):
    """The reference count: the kernel dimension from the dense SVD of the whole matrix."""
    sv = np.linalg.svd(ad, compute_uv=False)
    return int(np.sum(sv < ZERO_TOL * sv[0])), sv


def _assert_graded_equals_dense(alg, ad):
    dense_dim, dense = _dense_kernel(ad)
    graded = graded_singular_values(alg, ad)
    assert np.abs(graded - dense).max() <= 1e-13 * dense[0]
    assert int(np.sum(graded < ZERO_TOL * graded[0])) == dense_dim == alg.rs.rank


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_graded_kernel_equals_dense_svd(name):
    alg = build_chevalley(name)
    _assert_graded_equals_dense(alg, build_e_plus(alg).ad)


@pytest.mark.parametrize("name", SMALL)
def test_graded_kernel_equals_dense_svd_complex(name):
    alg = build_chevalley(name)
    for coeffs in _random_coefficients(name):
        ep = build_e_plus(alg, coeffs)
        assert ep.ad.dtype == np.complex128
        _assert_graded_equals_dense(alg, ep.ad)


def _tampered_algebra(name, tamper):
    """A fresh algebra whose ad(E_+) is tampered; the cached one stays untouched."""
    alg = ChevalleyAlgebra(build_root_system(name))
    real_ad = alg.ad

    def ad(terms):
        out = real_ad(terms)
        tamper(alg, out)
        return out

    alg.ad = ad
    return alg


def _move_off_grading(alg, ad):
    # H_1 -> e_{alpha_1} has degree 1; moved to H_1 -> H_1 it has degree 0
    i = alg.root_index[alg.rs.simple_roots[0]]
    ad[0, 0], ad[i, 0] = ad[i, 0], 0


def _zero_cartan_column(alg, ad):
    # g_0 -> g_1 is injective (the kernel has no degree-0 part); one column less
    ad[:, 0] = 0


@pytest.mark.parametrize("name", ["A2", "D4", "G2", "E6"])
def test_entry_off_the_grading_raises(name):
    alg = _tampered_algebra(name, _move_off_grading)
    for coeffs in (None, [1j] + [1.0] * alg.rs.rank):  # real, then complex ad(E_+)
        with pytest.raises(RegularityError, match="off the principal grading"):
            build_e_plus(alg, coeffs)


@pytest.mark.parametrize("name", ["A2", "D4", "G2", "E6"])
def test_zero_block_column_raises(name):
    alg = _tampered_algebra(name, _zero_cartan_column)
    assert _dense_kernel(alg.ad(dict.fromkeys(alg.rs.simple_roots, 1.0)))[0] == alg.rs.rank + 1
    with pytest.raises(RegularityError, match=f"dimension {alg.rs.rank + 1}, expected"):
        build_e_plus(alg)


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_real_spectrum_equals_complex_spectrum(name):
    alg = build_chevalley(name)
    rs = alg.rs
    ep = build_e_plus(alg)
    terms = dict(zip((rs.alpha0,) + rs.simple_roots, map(complex, default_coefficients(alg))))
    complex_ep = dataclasses.replace(ep, ad=alg.ad(terms))
    assert ep.ad.dtype == np.float64 and complex_ep.ad.dtype == np.complex128
    real, cplx = ad_spectrum(ep).nonzero, ad_spectrum(complex_ep).nonzero
    cost = np.abs(real[:, None] - cplx[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert cost[ri, ci].max() <= 1e-13 * np.max(np.abs(cplx))


# every exponent odd: ad(E_+) swaps the even and odd degrees, and its spectrum
# is read off the half-size block B_eo B_oe (spectrum.adjoint_eigenvalues)
PARITY = [t for t in STANDARD_TYPES if all(e % 2 for e in build_root_system(t).exponents)]


def test_parity_route_types():
    assert PARITY == ["B2", "B3", "B4", "C3", "D4", "G2", "F4", "E7", "E8"]


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_parity_route_is_taken_exactly_when_every_exponent_is_odd(name):
    alg = build_chevalley(name)
    blocks = parity_blocks(alg)
    assert (blocks is not None) == (name in PARITY)
    if blocks is not None:
        even, odd = blocks
        assert len(even) + len(odd) == alg.dim and len(odd) - len(even) == alg.rs.rank


def _zero_count(eig):
    return int(np.sum(np.abs(eig) < ZERO_TOL * np.max(np.abs(eig))))


def _assert_eigenvalues_equal_dense(ep):
    # the reference: dense eigvals of the whole ad(E_+), compared as multisets
    got, want = adjoint_eigenvalues(ep), np.linalg.eigvals(ep.ad)
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :])
    ri, ci = linear_sum_assignment(cost)
    assert cost[ri, ci].max() <= 1e-13 * np.max(np.abs(want))
    assert _zero_count(got) == _zero_count(want) == ep.alg.rs.rank


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_adjoint_eigenvalues_equal_dense_eigvals(name):
    _assert_eigenvalues_equal_dense(build_e_plus(build_chevalley(name)))


@pytest.mark.parametrize("name", [t for t in SMALL if t in PARITY])
def test_adjoint_eigenvalues_equal_dense_eigvals_complex(name):
    alg = build_chevalley(name)
    for coeffs in _random_coefficients(name):
        ep = build_e_plus(alg, coeffs)
        assert ep.ad.dtype == np.complex128
        _assert_eigenvalues_equal_dense(ep)


@pytest.mark.parametrize("name", PARITY)
def test_same_parity_entry_raises_before_any_eigenvalue(name, monkeypatch):
    # H_1 -> H_1 maps degree 0 to degree 0: even to even
    ep = build_e_plus(build_chevalley(name))
    ad = ep.ad.copy()
    assert ad[0, 0] == 0
    ad[0, 0] = 1.0

    def no_eigenvalues(a):
        raise AssertionError("an eigenvalue was formed")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigenvalues)
    with pytest.raises(RegularityError, match=r"\('h', 1\) of degree 0 onto \('h', 1\) of degree 0"):
        ad_spectrum(dataclasses.replace(ep, ad=ad))
