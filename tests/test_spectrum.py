import dataclasses
import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from coxstokes import cli
from coxstokes.chevalley import build_chevalley
from coxstokes.cli import STANDARD_TYPES
from coxstokes.coxeter import bipartition, coxeter_plane
from coxstokes.spectrum import (
    RegularityError,
    SpectrumMismatch,
    ad_spectrum,
    build_e_plus,
    default_coefficients,
    match_plane,
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


@pytest.mark.parametrize("name", SMALL)
def test_rotation_closure_and_regularity_random(name):
    alg = build_chevalley(name)
    rs = alg.rs
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(10):
        coeffs = rng.normal(size=rs.rank + 1) + 1j * rng.normal(size=rs.rank + 1)
        coeffs += 2.0  # keep safely away from zero
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


def test_spectrum_json_dump():
    alg = build_chevalley("A2")
    sr = ad_spectrum(build_e_plus(alg))
    doc = sr.to_jsonable()
    assert doc["zero_multiplicity"] == 2
    assert len(doc["eigenvalues"]) == 6
    assert {p["ray"] for p in doc["eigenvalues"]} == set(range(1, 7))
    import json

    json.dumps(doc)  # serializable


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
