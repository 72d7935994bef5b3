"""Spectrum of ad(E_+) and its identification with the Coxeter plane.

E_+ = sum_{i=0..l} c_i e_{a_i} (a_0 = -psi) is regular; its nonzero adjoint
eigenvalues fill the 2s singular directions, and after one global complex
rescaling they coincide with the plane coordinates of the roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .assignment import linear_assignment
from .chevalley import ChevalleyAlgebra, Element
from .coxeter import CoxeterPlaneDiagram, circular_cluster, mean_angle
from .rootcore import Root

ZERO_TOL = 1e-8
RAY_TOL = 1e-7
MATCH_TOL = 1e-6


class RegularityError(ArithmeticError):
    """ad(E_+) does not have an l-dimensional kernel."""


class SpectrumMismatch(AssertionError):
    """Spectrum does not reproduce the expected ray or plane structure."""


@dataclass
class EPlusElement:
    alg: ChevalleyAlgebra
    coefficients: Tuple[complex, ...]     # index 0 pairs with e_{-psi}
    element: Element
    ad: np.ndarray


def default_coefficients(alg: ChevalleyAlgebra) -> Tuple[float, ...]:
    """c_i = sqrt(q_i), the choice that makes the plane metric-exact."""
    return tuple(float(q) ** 0.5 for q in alg.rs.marks)


def build_e_plus(alg: ChevalleyAlgebra, coeffs: Sequence[complex] | None = None) -> EPlusElement:
    rs = alg.rs
    l = rs.rank
    if coeffs is None:
        coeffs = default_coefficients(alg)
    coeffs = tuple(complex(c) for c in coeffs)
    if len(coeffs) != l + 1 or any(c == 0 for c in coeffs):
        raise ValueError("need l+1 nonzero coefficients (index 0 for alpha_0 = -psi)")
    el = alg.e(rs.alpha0, coeffs[0])
    for i in range(l):
        el = alg.add(el, alg.e(rs.simple_roots[i], coeffs[i + 1]))
    ad = alg.ad_dense(el)
    sv = np.linalg.svd(ad, compute_uv=False)
    scale = sv[0]
    kernel_dim = int(np.sum(sv < ZERO_TOL * scale))
    if kernel_dim != l:
        raise RegularityError(f"kernel of ad(E_+) has dimension {kernel_dim}, expected {l}")
    return EPlusElement(alg, coeffs, el, ad)


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray                 # all dim(g) of them
    nonzero: np.ndarray                     # sorted canonically by (angle, radius)
    zero_multiplicity: int
    rays: Tuple[Tuple[float, int], ...]     # (angle, eigenvalue count) per ray
    ray_members: Tuple[Tuple[int, ...], ...]

    def to_jsonable(self) -> dict:
        """(real, imag, ray index) triples for external plotting."""
        eig = self.nonzero
        angles = np.angle(eig) % (2 * np.pi)
        ray_angles = [a for a, _ in self.rays]
        out = []
        for z, ang in zip(eig, angles):
            diffs = [
                min(abs(ang - a), 2 * np.pi - abs(ang - a)) for a in ray_angles
            ]
            out.append(
                {"real": float(z.real), "imag": float(z.imag),
                 "ray": int(np.argmin(diffs)) + 1}
            )
        return {
            "schema_version": 1,
            "zero_multiplicity": self.zero_multiplicity,
            "rays": [{"angle": a, "count": c} for a, c in self.rays],
            "eigenvalues": out,
        }


def ad_spectrum(ep: EPlusElement) -> SpectrumReport:
    """Eigenvalues of ad(E_+), clustered by argument into the 2s rays."""
    alg = ep.alg
    s = alg.rs.coxeter_number
    l = alg.rs.rank
    eig = np.linalg.eigvals(ep.ad)
    scale = np.max(np.abs(eig))
    zero_mask = np.abs(eig) < ZERO_TOL * scale
    nz = eig[~zero_mask]
    zmult = int(np.sum(zero_mask))
    if zmult != l:
        raise SpectrumMismatch(f"zero eigenvalue multiplicity {zmult}, expected l = {l}")

    angles = np.angle(nz) % (2 * np.pi)
    groups = circular_cluster(angles, RAY_TOL)
    if len(groups) != 2 * s:
        raise SpectrumMismatch(
            f"nonzero spectrum clusters into {len(groups)} rays, expected 2s = {2*s}"
        )
    reps = [mean_angle(angles[g]) for g in groups]
    order = np.argsort(reps)
    ray_angles = [reps[i] for i in order]
    gaps = np.diff(ray_angles + [ray_angles[0] + 2 * np.pi])
    if np.max(np.abs(gaps - np.pi / s)) > RAY_TOL:
        raise SpectrumMismatch(f"ray gaps deviate from pi/s beyond {RAY_TOL}: {gaps}")

    # spectrum is invariant under multiplication by e^{2 pi i/s}
    rot = np.exp(2j * np.pi / s) * nz
    cost = np.abs(rot[:, None] - nz[None, :])
    ri, ci = linear_assignment(cost)
    if cost[ri, ci].max() > 1e-7 * scale:
        raise SpectrumMismatch("nonzero spectrum not closed under the s-th root rotation")

    key = np.lexsort((np.abs(nz), np.round(np.angle(nz) % (2 * np.pi), 9)))
    rays = tuple(
        (ray_angles[k], len(groups[order[k]])) for k in range(len(groups))
    )
    members = tuple(tuple(groups[order[k]]) for k in range(len(groups)))
    return SpectrumReport(eig, nz[key], zmult, rays, members)


@dataclass
class PlaneMatch:
    kappa: complex
    max_residual: float


def match_plane(sr: SpectrumReport, plane: CoxeterPlaneDiagram) -> PlaneMatch:
    """Find kappa with {kappa * coord(a)} = nonzero spectrum as multisets.

    kappa is seeded once, from the eigenvalue whose modulus best fits the
    largest root of ray d_1 (the anchor), and polished by least squares on the
    optimal assignment; the match is accepted below MATCH_TOL (relative), and
    when every spectrum ray holds as many eigenvalues as the plane ray that
    kappa rotates onto it holds roots.  In every standard type each eigenvalue
    on the anchor's wheel seeds a match to rounding; a seed that does not match
    fails the MATCH_TOL check, so the single seed cannot pass a wrong spectrum.
    """
    nz = sr.nonzero
    coords = np.array([plane.coord[r] for r in sorted(plane.coord)])
    if len(coords) != len(nz):
        raise SpectrumMismatch("spectrum size differs from number of roots")
    scale = np.max(np.abs(nz))
    anchor = max(
        (plane.coord[r] for r in plane.assignment[0]), key=abs
    )
    # |kappa| max|coords| = max|nz| for the true kappa
    fit = np.abs(np.abs(nz) / abs(anchor) * np.max(np.abs(coords)) - scale)
    kappa = nz[int(np.argmin(fit))] / anchor
    cost = np.abs(kappa * coords[:, None] - nz[None, :])
    ri, ci = linear_assignment(cost)
    # least-squares polish of kappa over that assignment
    a, b = coords[ri], nz[ci]
    kappa = complex(np.vdot(a, b) / np.vdot(a, a))
    cost = np.abs(kappa * coords[:, None] - nz[None, :])
    ri, ci = linear_assignment(cost)
    res = float(cost[ri, ci].max())
    if res > MATCH_TOL * scale:
        raise SpectrumMismatch(f"plane/spectrum match residual {res} above {MATCH_TOL*scale}")

    counts = tuple(c for _, c in sr.rays)
    plane_counts = tuple(len(a) for a in _rotate_assignment(sr, plane, kappa))
    if counts != plane_counts:
        raise SpectrumMismatch(f"per-ray counts {counts} differ from the plane's {plane_counts}")
    return PlaneMatch(kappa, res)


def _rotate_assignment(sr: SpectrumReport, plane: CoxeterPlaneDiagram, kappa: complex):
    """Plane ray sets reordered to the spectrum's ray angles via arg(kappa)."""
    shift = np.angle(kappa)
    out = []
    for ang, _cnt in sr.rays:
        target = (ang - shift) % (2 * np.pi)
        diffs = [
            min(abs(target - a) % (2 * np.pi), 2 * np.pi - abs(target - a) % (2 * np.pi))
            for a in plane.ray_angles
        ]
        out.append(plane.assignment[int(np.argmin(diffs))])
    return out
