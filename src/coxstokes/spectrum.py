"""Spectrum of ad(E_+) and its identification with the Coxeter plane.

E_+ = sum_{i=0..l} c_i e_{a_i} (a_0 = -psi) is regular; its nonzero adjoint
eigenvalues fill the 2s singular directions, and after one global complex
rescaling they coincide with the plane coordinates of the roots.

The kernel is read off the principal grading: H_k has degree 0 and e_a
degree ht(a) mod s.  Every term of E_+ has degree 1 (ht(-psi) = 1 - s), so
ad(E_+) maps g_k into g_{k+1}: it is block-cyclic, and its singular values
are the union of those of its s blocks g_k -> g_{k+1}.  That degree is
checked exactly, entry by entry, before the blocks are read.  At real
coefficients (the default c_i = sqrt(q_i)) ad(E_+) is kept real, so its
decompositions run in real arithmetic.

The eigenvalues come from the same grading.  When s is even, ad(E_+)
swaps the even and odd degrees, so in a basis ordered by parity it is
[[0, B_eo], [B_oe, 0]], and

    det(x - ad E_+) = x^(d_odd - d_even) det(x^2 - B_eo B_oe),

d_even and d_odd the dimensions of the even and odd parts.  The class of
degree k has dimension l plus the multiplicity of k as an exponent (l for
k = 0), so d_odd - d_even = l exactly when every exponent is odd: B_l,
C_l, D_l with l even, E7, E8, F4 and G2.  There the l-dimensional kernel
is all of the x^(d_odd - d_even) factor, B_eo B_oe is nonsingular, and the
nonzero spectrum is +-sqrt of its d_even eigenvalues: half the size of
ad(E_+).  A_l, D_l with l odd and E6 have an even exponent (A_l with l
even has s odd, and no parity split at all).  Then d_odd - d_even < l, so
B_eo B_oe has true zero eigenvalues, and their square roots land near 1e-8
of the largest eigenvalue, on ZERO_TOL.  These types, all at most 78-dim,
keep the dense eigenvalues of ad(E_+).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .chevalley import ChevalleyAlgebra
from .coxeter import CoxeterPlaneDiagram, ray_index

ZERO_TOL = 1e-8
RAY_TOL = 1e-7
# the nonzero spectrum is closed under e^{2 pi i/s}, relative to max|eigenvalue|
ROTATION_TOL = 1e-7
MATCH_TOL = 1e-6


class RegularityError(ArithmeticError):
    """ad(E_+) does not have an l-dimensional kernel, or has an entry off the
    principal grading (E_+ has degree 1, so every nonzero entry of ad(E_+)
    maps g_k into g_{k+1})."""


class SpectrumMismatch(AssertionError):
    """Spectrum does not reproduce the expected ray or plane structure."""


@dataclass
class EPlusElement:
    alg: ChevalleyAlgebra
    ad: np.ndarray


def default_coefficients(alg: ChevalleyAlgebra) -> Tuple[float, ...]:
    """c_i = sqrt(q_i), the choice that makes the plane metric-exact."""
    return tuple(float(q) ** 0.5 for q in alg.rs.marks)


def build_e_plus(alg: ChevalleyAlgebra, coeffs: Sequence[complex] | None = None) -> EPlusElement:
    """ad(E_+) for the coefficients (index 0 for alpha_0 = -psi), checked regular.

    The matrix is real (float64) when every coefficient is, and complex
    otherwise.  Its kernel dimension counts the singular values below
    ZERO_TOL times the largest, taken block by block over the principal
    grading (``graded_singular_values``); RegularityError unless it is l.
    """
    rs = alg.rs
    l = rs.rank
    if coeffs is None:
        coeffs = default_coefficients(alg)
    coeffs = tuple(complex(c) for c in coeffs)
    if len(coeffs) != l + 1 or any(c == 0 for c in coeffs):
        raise ValueError("need l+1 nonzero coefficients (index 0 for alpha_0 = -psi)")
    ad = alg.ad(dict(zip((rs.alpha0,) + rs.simple_roots, coeffs)))
    if not any(c.imag for c in coeffs):
        ad = ad.real.copy()  # every imaginary part is exactly 0
    sv = graded_singular_values(alg, ad)
    kernel_dim = int(np.sum(sv < ZERO_TOL * sv[0]))
    if kernel_dim != l:
        raise RegularityError(f"kernel of ad(E_+) has dimension {kernel_dim}, expected {l}")
    return EPlusElement(alg, ad)


def principal_degrees(alg: ChevalleyAlgebra) -> np.ndarray:
    """The principal degree of each basis element: 0 on H_k, ht(a) mod s on e_a."""
    s = alg.rs.coxeter_number
    return np.concatenate([np.zeros(alg.rs.rank, dtype=np.int64), alg.tables.roots.sum(axis=1)]) % s


def _check_zero(alg: ChevalleyAlgebra, ad: np.ndarray, deg: np.ndarray, forbidden: np.ndarray):
    """RegularityError naming the first nonzero entry of ad where forbidden holds."""
    off = np.argwhere((ad != 0) & forbidden)
    if len(off):
        i, j = off[0]
        raise RegularityError(
            f"ad(E_+) maps {alg.label(j)} of degree {deg[j]} onto {alg.label(i)} "
            f"of degree {deg[i]}, off the principal grading"
        )


def graded_singular_values(alg: ChevalleyAlgebra, ad: np.ndarray) -> np.ndarray:
    """All dim g singular values of a degree-1 ad matrix, descending, from its blocks.

    H_k has degree 0 and e_a degree ht(a) mod s.  First every entry mapping
    g_k outside g_{k+1} is checked to be exactly 0 (RegularityError names
    the first that is not).  Then ad* ad is block diagonal, with the blocks
    B_k* B_k of B_k: g_k -> g_{k+1}; so the singular values are those of
    the B_k, each padded with zeros to dim g_k.
    """
    s = alg.rs.coxeter_number
    deg = principal_degrees(alg)
    _check_zero(alg, ad, deg, deg[:, None] != (deg[None, :] + 1) % s)
    parts = [np.flatnonzero(deg == k) for k in range(s)]
    sv = np.zeros(alg.dim)
    at = 0
    for k, cols in enumerate(parts):
        block = np.linalg.svd(ad[np.ix_(parts[(k + 1) % s], cols)], compute_uv=False)
        sv[at:at + len(block)] = block
        at += len(cols)
    return np.sort(sv)[::-1]


def parity_blocks(alg: ChevalleyAlgebra) -> Tuple[np.ndarray, np.ndarray] | None:
    """The even- and odd-degree basis indices when every exponent is odd, else None.

    That is when s is even and d_odd - d_even = l, the case in which
    adjoint_eigenvalues squares ad(E_+) onto its even part.
    """
    if alg.rs.coxeter_number % 2:
        return None
    odd = principal_degrees(alg) % 2 == 1
    even_idx, odd_idx = np.flatnonzero(~odd), np.flatnonzero(odd)
    if len(odd_idx) - len(even_idx) != alg.rs.rank:
        return None
    return even_idx, odd_idx


def adjoint_eigenvalues(ep: EPlusElement) -> np.ndarray:
    """All dim g eigenvalues of ad(E_+), from its parity blocks when every exponent is odd.

    On that route the even->even and odd->odd blocks are first checked to be
    exactly 0 (RegularityError names the first entry that is not), then the
    eigenvalues are the d_odd - d_even = l zeros and +-sqrt(eig(B_eo B_oe)).
    Otherwise they are the dense eigenvalues of ad(E_+).
    """
    blocks = parity_blocks(ep.alg)
    if blocks is None:
        return np.linalg.eigvals(ep.ad)
    even, odd = blocks
    deg = principal_degrees(ep.alg)
    par = deg % 2
    _check_zero(ep.alg, ep.ad, deg, par[:, None] == par[None, :])
    mu = np.linalg.eigvals(ep.ad[np.ix_(even, odd)] @ ep.ad[np.ix_(odd, even)])
    root = np.sqrt(mu.astype(np.complex128))
    return np.concatenate([np.zeros(len(odd) - len(even), dtype=np.complex128), root, -root])


@dataclass
class SpectrumReport:
    nonzero: np.ndarray                     # sorted canonically by (ray, radius)
    zero_multiplicity: int
    rays: Tuple[Tuple[float, int], ...]     # (angle, eigenvalue count) of ray k = 0 .. 2s-1


def ad_spectrum(ep: EPlusElement) -> SpectrumReport:
    """Eigenvalues of ad(E_+), each on one of the 2s rays phi + k pi/s."""
    return ray_report(adjoint_eigenvalues(ep), ep.alg.rs.coxeter_number, ep.alg.rs.rank)


def ray_report(eig: np.ndarray, s: int, l: int) -> SpectrumReport:
    """The ray structure of the dim g eigenvalues of ad(E_+), checked.

    l of them must be zero (below ZERO_TOL relative to the largest), the
    rest lie on the 2s rays phi + k pi/s within RAY_TOL, each ray nonempty,
    and the rotation by e^{2 pi i/s} maps the nonzero spectrum onto itself
    within ROTATION_TOL; SpectrumMismatch otherwise.
    """
    scale = np.max(np.abs(eig))
    zero_mask = np.abs(eig) < ZERO_TOL * scale
    nz = eig[~zero_mask]
    zmult = int(np.sum(zero_mask))
    if zmult != l:
        raise SpectrumMismatch(f"zero eigenvalue multiplicity {zmult}, expected l = {l}")

    # angle * 2s sends every ray to one point, whose mean direction gives phi mod
    # pi/s; phi is taken in [-pi/4s, 3pi/4s), away from both offsets 0 and pi/2s
    # that a real ad(E_+) can have, so rounding cannot relabel its rays
    theta = np.angle(nz)
    q = np.pi / (4 * s)
    phi = float((np.angle(np.exp(2j * s * theta).sum()) / (2 * s) + q) % (np.pi / s) - q)
    ray = ray_index(theta, s, phi, RAY_TOL / 2)
    if (ray < 0).any():
        angle = theta[np.argmax(ray < 0)] % (2 * np.pi)
        raise SpectrumMismatch(f"eigenvalue angle {angle} not within {RAY_TOL / 2} of a ray")
    counts = np.bincount(ray, minlength=2 * s)
    if not counts.all():
        raise SpectrumMismatch(
            f"nonzero spectrum fills {np.count_nonzero(counts)} rays, expected 2s = {2*s}"
        )

    # the spectrum is invariant under e^{2 pi i/s}, which turns ray k onto ray
    # k + 2: the rays must hold equal counts, and within each pair of rays the
    # eigenvalues pair by modulus.  Sorted by (ray, radius), ray k + 2 then
    # sits counts[0] + counts[1] places after ray k.
    if (np.roll(counts, 2) != counts).any():
        raise SpectrumMismatch(
            f"ray counts {counts.tolist()} not closed under the s-th root rotation"
        )
    nz = nz[np.lexsort((np.abs(nz), ray))]
    onto = np.roll(nz, -(counts[0] + counts[1]))
    if np.abs(np.exp(2j * np.pi / s) * nz - onto).max() > ROTATION_TOL * scale:
        raise SpectrumMismatch("nonzero spectrum not closed under the s-th root rotation")

    rays = tuple((phi + k * np.pi / s, int(c)) for k, c in enumerate(counts))
    return SpectrumReport(nz, zmult, rays)


@dataclass
class PlaneMatch:
    kappa: complex
    max_residual: float


def match_plane(sr: SpectrumReport, plane: CoxeterPlaneDiagram) -> PlaneMatch:
    """Find kappa with {kappa * coord(a)} = nonzero spectrum as multisets.

    kappa is seeded once, from the eigenvalue whose modulus best fits the
    largest root of ray d_1 (the anchor).  The seed fixes the plane ray that
    each spectrum ray holds; the two must hold equal counts, and within a
    ray they pair by modulus.  kappa is polished by least squares over those
    pairs, and the match is accepted when its largest pair residual is below
    MATCH_TOL (relative).  In every standard type each eigenvalue on the
    anchor's wheel seeds a match to rounding; a seed that does not match
    fails one of the two checks, so the single seed cannot pass a wrong
    spectrum.
    """
    nz = sr.nonzero
    scale = np.max(np.abs(nz))
    anchor = max(
        (plane.coord[r] for r in plane.assignment[0]), key=abs
    )
    # |kappa| max|coords| = max|nz| for the true kappa
    radius = np.max(np.abs(np.array(list(plane.coord.values()))))
    fit = np.abs(np.abs(nz) / abs(anchor) * radius - scale)
    kappa = nz[int(np.argmin(fit))] / anchor

    # ray 0 of the spectrum sits at its offset phi; spectrum ray k holds kappa times
    # plane ray k - shift, which is d_{shift-k+1}
    s = plane.num_rays // 2
    shift = int(np.rint((np.angle(kappa) - sr.rays[0][0]) * s / np.pi))
    held = [plane.assignment[(shift - k) % (2 * s)] for k in range(2 * s)]
    counts = tuple(c for _, c in sr.rays)
    plane_counts = tuple(map(len, held))
    if counts != plane_counts:
        raise SpectrumMismatch(f"per-ray counts {counts} differ from the plane's {plane_counts}")
    a = np.array([c for roots in held for c in sorted((plane.coord[r] for r in roots), key=abs)])
    kappa = complex(np.vdot(a, nz) / np.vdot(a, a))
    res = float(np.max(np.abs(kappa * a - nz)))
    if res > MATCH_TOL * scale:
        raise SpectrumMismatch(f"plane/spectrum match residual {res} above {MATCH_TOL*scale}")
    return PlaneMatch(kappa, res)
