"""Independent numerical verification of the type-A Stokes data.

Builds the lambda-plane meromorphic system of A_n, with a double pole at 0
and a simple pole at infinity, in the registered representation and root
system; solves the formal-series recursion at the irregular pole, integrates
the monodromy numerically, and compares its characteristic polynomial against
the prediction generated by the Stokes pipeline.

On the circle lambda = r e^{i theta} the system reads

    dPhi/dtheta = A(theta) Phi,   A(theta) = i M + e^{-i theta} K,

with M = diag(m) and K = -i (s/N)(z/r) eta_+ constant.  It has the cyclic
symmetry of the tt*-Toda system (Guest, Its, Lin, "Isomonodromy aspects of the
tt* equations of Cecotti and Vafa I", Comm. Math. Phys. 2015)

    A(theta + 2 pi/s) = Omega A(theta) Omega^{-1},
    Omega = diag(omega^j) (j = 0..n),   omega = e^{2 pi i/s}:

M is diagonal, and eta_+ = sum_j p_j e_{alpha_j} over the affine simple roots.
The registered basis of A_n is the matrix units, so e_{alpha_j} = E_{j-1,j} and
e_{alpha_0} = e_{-theta} = E_{n,0}, which conjugation by Omega multiplies by
omega^{-1}, as the turn by 2 pi/s multiplies e^{-i theta}.  Hence, with Phi(0) = I and U_1 = Phi(2 pi/s),
Phi(theta + 2 pi/s) = Omega Phi(theta) Omega^{-1} U_1, and as Omega^s = I,

    Phi(2 pi) = (Omega^{-1} U_1)^s.

This is the shape of the prediction P0^{-s} (M0)^s: P0 = e^{i pi n/s} Omega^{-1}
(the exponential of 2 pi i x0/s) acts on M and eta_+ as Omega^{-1} does, and the
two differ by a central scalar.

U_1 is integrated with per = 2 ceil(N/(2s)) equal steps of the sixth-order
Magnus method on three Gauss-Legendre nodes per step, in the Blanes-Casas-Ros
form with three commutators (Blanes, Casas, Oteo, Ros, "The Magnus expansion
and some of its applications", Phys. Rep. 470 (2009)).  N is the full-circle
step rule

    N = max(128, 2^ceil(log2(2 pi rho / 0.2))),   rho = ||M||_2 + ||K||_2,

so the circle is cut into s per >= N steps and h ||A(theta)|| <= 0.2 on every
step; a count above MAX_STEPS is refused (SystemError_) before any allocation.
All step generators of the sector, and those of the per/2-step run below,
are formed in one batched expression (h set per row) and exponentiated
together by their Taylor polynomial of degree 16, evaluated in
Paterson-Stockmeyer form in six batched matrix products.  M is
diagonal and K has one entry per row and column, so ||h A||_1 = ||h A||_2 <= 0.2
(0.4 for the per/2 steps below), and at a generator 1-norm <= 0.5 the remainder
is below 1e-19 (scipy's expm would loop over the stack and wake a BLAS worker
thread for its LU solves).

The propagators are multiplied pairwise in np.clongdouble to U_1, and the s-th
power is taken in np.clongdouble too.  Powering in double loses digits when Phi
grows inside the loop: at one sl3 system with M = 0, where Phi(2 pi) = I and
||U_1|| = 4.2e3, the double-precision power is off by 1.8e-6 relative and the
extended one by 2.1e-9.  The same integration with per/2 steps a sector gives
the Richardson estimate ||Phi_N - Phi_{N/2}|| / (63 ||Phi_N||) of the relative
error.  The rounding noise is ||Phi_N - Phi_double|| / ||Phi_N||, with Phi_double
the same propagators multiplied pairwise and powered in double precision.
Above 1e-9 the integration raises IntegratorError, unless Phi_N - Phi_{N/2} is
within a factor 10 of the rounding noise: there more steps cannot help, and
the characteristic-polynomial comparison decides.  ``steps`` counts the Magnus
steps of the whole circle, s per, and ``nfev`` the coefficient evaluations at
the Gauss nodes made in the two sector integrations, 3 (per + per/2).

Neither the Richardson estimate nor the rounding noise sees the
double-precision rounding inside the propagators themselves, so the pair
bounds the error only above about 1e-14.  In a census of 20,000 seeded bench
systems, 50 of the 961 with M = 0, where Phi(2 pi) = I exactly, had a true
error ||Phi - I|| / ||Phi|| of 6.7e-16 to 6.2e-15, above both.

The numerical characteristic polynomial is formed from the spectrum of the
sector factor, eig(Phi(2 pi)) = eig(Omega^{-1} U_1)^s, which is the better
conditioned of the two where ||Omega^{-1} U_1|| is far below ||Phi||: at an sl4
system with ||Phi|| = 5.6e4 and ||U_1|| = 7.8e2 its residual is 4.3e-8, where
the charpoly of Phi carries 4.5e-5.

np.longdouble is the 80-bit x87 format on x86-64 Linux (eps 1.1e-19), where
this was measured.  Where np.longdouble is plain double, powering loses digits
as above, and the Richardson estimate and the rounding exemption are meant to
turn that into IntegratorError (CLI exit 3), never into a silent pass; that
case is unverified.

Besides the numerical comparison, ``numerical_monodromy`` runs an exact,
radius-free exponent check: the residue of the system at infinity is M, so the
monodromy class has the eigenvalues e^{2 pi i m_j}.  Each m_j is an exact
Fraction, reduced mod 1 before it is rounded, and the predicted characteristic
polynomial is compared with prod_j (x - e^{2 pi i m_j}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .rootcore import diagram_involution
from .scalars import mat_vec
from .steinberg import ConsistencyError, check_character_cap, stokes_from_asymptotics
from .weightrep import Representation, registered_representation


class SystemError_(ValueError):
    """Invalid meromorphic system data."""


class IntegratorError(ArithmeticError):
    """The monodromy integration cannot reach its accuracy target."""


@dataclass
class MeromorphicSystem:
    n: int
    c: Tuple[float, ...]              # c_0 .. c_n, positive
    k: Tuple[Q, ...]                  # k_0 .. k_n, >= -1, nu-symmetric
    z: float
    bigN: Q                           # N = s + sum q_i k_i
    m_values: Tuple[Q, ...]           # alpha_i(m) for i = 1..n
    m_entries: Tuple[Q, ...]          # m_0 .. m_n, the exact diagonal of m
    m_diag: np.ndarray
    eta_plus: np.ndarray
    rep: Representation               # the registered representation of A_n

    @property
    def s(self) -> int:
        return self.n + 1

    def m_coords(self) -> Tuple[Q, ...]:
        """m in H_{alpha_i} coordinates of the abstract root system."""
        eps = self.rep.rs.epsilon_basis  # eps[j][i] = G^{-1}[i][j]
        return mat_vec(tuple(zip(*eps)), self.m_values)


def _affine_root_matrices(rep: Representation) -> Tuple[np.ndarray, ...]:
    """e_{alpha_i} in rep over the affine simple roots alpha_0 = -theta, alpha_1, .., alpha_n."""
    rs = rep.rs
    return tuple(rep.root_matrix(a) for a in (rs.alpha0,) + tuple(rs.simple_roots))


def _trace_free_diagonal(steps: Sequence) -> list:
    """d_0 .. d_n with d_{i-1} - d_i = steps[i - 1] and sum zero: exact on Fractions."""
    part = [0]
    for a in steps:
        part.append(part[-1] - a)
    shift = -sum(part) / len(part)
    return [p + shift for p in part]


def build_system(n: int, c: Sequence, k: Sequence, z: float) -> MeromorphicSystem:
    """The lambda-plane system of A_n with monomial data p_i = c_i z^{k_i}.

    Built in the registered representation: eta_+ = sum_i p_i e_{alpha_i} over
    the affine simple roots, and m = diag(m_0 .. m_n) with m_{i-1} - m_i =
    alpha_i(m) = (s/N)(k_i + 1) - 1 and trace zero.  The eigenvalues of eta_+
    are the s distinct s-th roots of prod_i p_i > 0, so eta_+ is regular
    whenever every p_i is a positive normal float.
    """
    check_character_cap(f"A{n}")  # before the representation and its algebra are built
    rep = registered_representation(f"A{n}")
    s = rep.rs.coxeter_number
    c = tuple(float(x) for x in c)
    k = tuple(Q(x) for x in k)
    if len(c) != n + 1 or len(k) != n + 1:
        raise SystemError_("need n+1 values c_0..c_n and k_0..k_n")
    if any(x <= 0 for x in c):
        raise SystemError_("c_i must be positive")
    if any(x < -1 for x in k):
        raise SystemError_("k_i must be >= -1")
    nu = (0,) + diagram_involution(rep.rs)  # node 0 is fixed
    for i in range(n + 1):
        if k[i] != k[nu[i]]:
            raise SystemError_(f"k_{i} != k_{nu[i]} violates the diagram symmetry")
    z = float(z)
    if not 0 < z < math.inf:
        raise SystemError_(f"z must be finite and positive, not {z}")
    bigN = s + sum(k)  # all marks q_i = 1 in type A
    if bigN <= 0:
        raise SystemError_(f"N = {bigN} must be positive")
    p = []
    for i in range(n + 1):
        try:
            p.append(c[i] * z ** float(k[i]))
        except OverflowError:
            p.append(math.inf)
        if not np.finfo(float).tiny <= p[i] < math.inf:
            raise SystemError_(f"the entry p_{i} = c_{i} z^k_{i} = {p[i]:.3g} of eta_+ "
                               "is not a positive normal float")

    a = [Q(s) / bigN * (k[i] + 1) - 1 for i in range(1, n + 1)]
    mdiag = _trace_free_diagonal(a)
    m_diag = np.diag([float(x) for x in mdiag]).astype(complex)
    eta = sum(pi * e for pi, e in zip(p, _affine_root_matrices(rep)))
    return MeromorphicSystem(n, c, k, z, bigN, tuple(a), tuple(mdiag), m_diag, eta, rep)


# -- formal solution at the irregular pole --------------------------------------

FORMAL_ORDER = 5         # order of the formal solution the CLI reports
_TINY = np.finfo(float).tiny   # the smallest positive normal float


@dataclass
class FormalSolution:
    order: int
    prefactor: np.ndarray              # the torus monomial h(z) as a matrix
    t_scale: float
    lambda_minus1: np.ndarray
    lambda_coeffs: Tuple[np.ndarray, ...]   # Lambda_0, Lambda_1, ..., Lambda_{K-1}
    y_coeffs: Tuple[np.ndarray, ...]        # Y_1 .. Y_K
    residual_norms: Tuple[float, ...]       # ODE remainder coefficients xi^{-2}..xi^{K-2}

    @property
    def lambda0_norm(self) -> float:
        return float(np.max(np.abs(self.lambda_coeffs[0])))


def formal_solution(sys: MeromorphicSystem, order: int) -> FormalSolution:
    """Solve the recursion Lambda_{k-1} + [Y_k, Lambda_{-1}] = F_{k-1} to the given order.

    Torus components project onto the centralizer of the leading term; the
    off-torus parts invert ad(Lambda_{-1}).  The truncated series is then
    substituted back into the ODE and the low-order remainder coefficients
    are returned (they must vanish).  A system whose coefficients or
    remainder leave the finite floats is refused (SystemError_).
    """
    if not 1 <= order <= 30:
        raise ValueError("order must be 1..30")
    n = sys.n
    s, bigN, z = sys.s, float(sys.bigN), sys.z

    # The leading term is Lambda_{-1} = -t E_+ with t = (s/N) c^{1/s} z^{N/s},
    # c = prod c_i; t, the entries (s/N) z p_i of A_{-1} and every entry of
    # h(z) and h(z)^{-1} must be normal floats, checked before anything
    # overflows or divides by zero.
    with np.errstate(over="ignore"):
        cprod = float(np.prod(sys.c))
    try:
        t_scale = (s / bigN) * cprod ** (1.0 / s) * z ** (bigN / s)
    except OverflowError:
        t_scale = math.inf
    if not _TINY <= t_scale < math.inf:
        raise SystemError_(f"the leading coefficient t = (s/N) c^(1/s) z^(N/s) = {t_scale:.3g}"
                           " of the formal solution is not a positive normal float")
    with np.errstate(over="ignore"):
        lead = (s / bigN) * z * np.abs(sys.eta_plus[sys.eta_plus != 0])
    if not (_TINY <= lead.min() and lead.max() < math.inf):
        raise SystemError_(f"the leading term (s/N) z eta_+ has entries {lead.min():.3g}"
                           f" .. {lead.max():.3g}, outside the normal floats")

    # h(z) = e^D z^r: alpha_i(r) = k_i + 1 - N/s, alpha_i(D) = log c_i - (1/s) log c
    r_vals = [float(sys.k[i]) + 1 - bigN / s for i in range(1, n + 1)]
    d_vals = [np.log(sys.c[i]) - np.log(cprod) / s for i in range(1, n + 1)]

    rdiag = np.array(_trace_free_diagonal(r_vals))
    ddiag = np.array(_trace_free_diagonal(d_vals))
    log_h = ddiag + rdiag * np.log(z)
    top = np.max(np.abs(log_h))
    if not top < -math.log(_TINY):
        raise SystemError_(f"the prefactor h(z) = e^D z^r has an entry e^{top:.4g}"
                           " or its inverse outside the normal floats")
    P = np.diag(np.exp(log_h)).astype(complex)
    Pinv = np.linalg.inv(P)

    A_m1 = -(s / bigN) * z * sys.eta_plus
    A_0 = sys.m_diag

    lam_m1 = Pinv @ A_m1 @ P
    # internal anchor: Lambda_{-1} = -t E_+ with unit coefficients
    e_plus = sum(_affine_root_matrices(sys.rep))
    if np.max(np.abs(lam_m1 + t_scale * e_plus)) > 1e-10 * max(1.0, t_scale):
        raise ArithmeticError("prefactor does not conjugate the leading term to -t E_+")

    d, V = np.linalg.eig(lam_m1)
    if np.min(np.abs(d[:, None] - d[None, :]) + np.eye(n + 1)) < 1e-10 * np.max(np.abs(d)):
        raise SystemError_("leading term not regular; cannot invert ad")
    Vinv = np.linalg.inv(V)

    off_diag = ~np.eye(n + 1, dtype=bool)
    gaps = d[None, :] - d[:, None]  # gaps[a, b] = d_b - d_a

    def proj_parts(F):
        Fp = Vinv @ F @ V
        lam_part = V @ np.diag(np.diag(Fp)) @ Vinv
        off = Fp - np.diag(np.diag(Fp))
        Yp = np.divide(off, gaps, out=np.zeros_like(off), where=off_diag)
        return lam_part, V @ Yp @ Vinv

    # without numpy's warnings: terms that leave the finite floats are refused
    # below, so stderr holds only the domain error
    with np.errstate(all="ignore"):
        F0 = Pinv @ A_0 @ P
        lambdas: List[np.ndarray] = []
        ys: List[np.ndarray] = [np.eye(n + 1, dtype=complex)]  # Y_0 = I
        lam0, y1 = proj_parts(F0)
        lambdas.append(lam0)
        ys.append(y1)
        for kk in range(2, order + 1):
            F = F0 @ ys[kk - 1] - (kk - 1) * ys[kk - 1]
            for nn in range(1, kk):
                F = F - ys[nn] @ lambdas[kk - 1 - nn]
            lam_k, y_k = proj_parts(F)
            lambdas.append(lam_k)
            ys.append(y_k)

        # substitute the truncation into the ODE and collect the remainder
        # coefficients of xi^-2 .. xi^(K-2), the reported ones:
        # S(xi) = P (Y'(xi) + Y(xi) Ups'(xi)) - A(xi) P Y(xi).  The products are
        # batched, and each coefficient sums its terms in the order
        #   k P Y_k;  (P Y_k) U_j by k, then j = -2, -1, 0, ..;  -(A_0 P) Y_k, -(A_m1 P) Y_k by k.
        K = order
        top = K - 2
        ystack = np.stack(ys)
        py = P @ ystack
        terms = [(kk - 1, kk * py[kk]) for kk in range(1, K + 1)]
        ups = [(-2, lam_m1), (-1, lambdas[0])] + [(j - 1, lambdas[j]) for j in range(1, K)]
        pairs = [(kk, jp, U) for kk in range(K + 1) for jp, U in ups if kk + jp <= top]
        prods = py[[kk for kk, _, _ in pairs]] @ np.stack([U for _, _, U in pairs])
        terms += [(kk + jp, prod) for (kk, jp, _), prod in zip(pairs, prods)]
        am, a0 = (A_m1 @ P) @ ystack, (A_0 @ P) @ ystack
        for kk in range(K + 1):
            terms += [(kk - 2, -am[kk]), (kk - 1, -a0[kk])]
        coeffs: Dict[int, np.ndarray] = {}
        for mpow, mat in terms:
            if mpow <= top:
                coeffs[mpow] = coeffs[mpow] + mat if mpow in coeffs else mat

        res = tuple(
            float(np.max(np.abs(coeffs.get(mp, np.zeros(1))))) for mp in range(-2, K - 1)
        )
    if not all(np.isfinite(a).all() for a in (*lambdas, *ys, res)):
        raise SystemError_(f"the formal recursion to order {K} leaves the finite floats"
                           f" (leading coefficient t = {t_scale:.3g})")
    return FormalSolution(
        order=K,
        prefactor=P,
        t_scale=t_scale,
        lambda_minus1=lam_m1,
        lambda_coeffs=tuple(lambdas),
        y_coeffs=tuple(ys[1:]),
        residual_norms=res,
    )


# -- numerical monodromy ----------------------------------------------------------

# Gauss-Legendre nodes on [0, 1] of the sixth-order Magnus step
_GL_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10
MIN_STEPS = 128
MAX_STEPS = 2 ** 16      # most Magnus steps of one circle; more are refused before any allocation
STEP_NORM = 0.2          # h * rho on every step
ERROR_TOL = 1e-9         # largest accepted Richardson estimate
EXP_DEGREE = 16          # Taylor degree of the step exponential (a multiple of 4)
EXP_NORM = 0.5           # largest step generator 1-norm it is used at
ROUNDING_MARGIN = 10     # Richardson differences within this factor of rounding noise are noise
MONODROMY_TOL = 1e-6     # bound on both charpoly residuals of a passing monodromy check


@dataclass
class MonodromyReport:
    n: int
    k: Tuple[Q, ...]
    z: float
    radius: float
    numerical_charpoly: np.ndarray
    predicted_charpoly: np.ndarray
    max_coeff_residual: float
    exponent_residual: float           # predicted charpoly vs prod (x - e^{2 pi i m_j})
    error_estimate: float              # Richardson estimate of the integration error
    rounding_noise: float              # relative distance to the double-precision product
    central_factor: complex            # the P0^{-s} scalar in the standard rep
    nfev: int
    steps: int

    @property
    def ok(self) -> bool:
        return (
            self.max_coeff_residual < MONODROMY_TOL and self.exponent_residual < MONODROMY_TOL
        )


class Integration(NamedTuple):
    mono: np.ndarray                   # Phi(2 pi) = sector^s
    sector: np.ndarray                 # the one-sector factor Omega^{-1} U_1
    nfev: int                          # coefficient evaluations at the Gauss nodes
    steps: int                         # Magnus steps of the full circle, s per sector
    error_estimate: float
    rounding_noise: float


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _magnus_generators(
    im: np.ndarray, k: np.ndarray, h: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """The sixth-order Magnus generators of the steps [h_j i_j, h_j (i_j + 1)], one per row j."""
    theta = h[:, None] * (index[:, None] + _GL_NODES)                 # (rows, 3)
    a = h[:, None, None, None] * (im + np.exp(-1j * theta)[..., None, None] * k)  # (rows, 3, n, n)
    alpha1 = a[:, 1]
    alpha2 = math.sqrt(15.0) / 3 * (a[:, 2] - a[:, 0])
    alpha3 = 10.0 / 3 * (a[:, 2] - 2 * a[:, 1] + a[:, 0])
    c1 = _commutator(alpha1, alpha2)
    c2 = -_commutator(alpha1, 2 * alpha3 + c1) / 60
    return alpha1 + alpha3 / 12 + _commutator(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240


_EXP_COEFFS = tuple(1 / math.factorial(j) for j in range(EXP_DEGREE + 1))


def _exp_taylor(omega: np.ndarray) -> np.ndarray:
    """exp of each matrix of the stack by its Taylor polynomial, in Paterson-Stockmeyer form.

    With W = omega^4 and the cubic blocks B_j = sum_{i<4} omega^i / (4j + i)!,
    the degree-16 polynomial is (((W/16! + B_3) W + B_2) W + B_1) W + B_0
    (Paterson, Stockmeyer, SIAM J. Comput. 2 (1973)): six batched matrix
    products (omega^2, omega^3, W and three Horner steps) where Horner form in
    omega takes 15.
    """
    norm = np.abs(omega).sum(axis=-2).max()  # largest 1-norm in the stack
    if not norm <= EXP_NORM:  # NaN fails too
        raise IntegratorError(f"integrator failed: step generator norm {norm:.3g} above {EXP_NORM}")
    omega2 = omega @ omega
    powers = (omega, omega2, omega @ omega2)
    w4 = omega2 @ omega2
    diag = np.arange(omega.shape[-1])

    def add_block(out, j):
        """out + B_j, in place."""
        for i, power in enumerate(powers, start=1):
            out += _EXP_COEFFS[4 * j + i] * power
        out[..., diag, diag] += _EXP_COEFFS[4 * j]
        return out

    top = EXP_DEGREE // 4 - 1
    out = add_block(_EXP_COEFFS[EXP_DEGREE] * w4, top)
    for j in range(top - 1, -1, -1):
        out = add_block(out @ w4, j)
    return out


def tree_product(props: np.ndarray) -> np.ndarray:
    """props[-1] ... props[1] props[0], multiplied pairwise in the dtype of props."""
    while len(props) > 1:
        even = len(props) // 2 * 2
        paired = props[1:even:2] @ props[0:even:2]
        props = paired if even == len(props) else np.concatenate((paired, props[-1:]))
    return props[0]


def sector_phases(s: int) -> np.ndarray:
    """The diagonal omega^{-j}, j = 0..s-1, of Omega^{-1}, omega = e^{2 pi i/s}, in clongdouble."""
    angle = 2 * np.arccos(np.longdouble(-1)) / s * np.arange(s, dtype=np.longdouble)
    out = np.empty(s, dtype=np.clongdouble)
    out.real, out.imag = np.cos(angle), -np.sin(angle)
    return out


def circle_coefficients(sys: MeromorphicSystem, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """(iM, K) with dPhi/dtheta = (iM + e^{-i theta} K) Phi on |lambda| = radius."""
    k = -1j * (sys.s / float(sys.bigN)) * (sys.z / radius) * sys.eta_plus
    return 1j * sys.m_diag, k


def integrate_monodromy(sys: MeromorphicSystem, radius: float = 1.0) -> Integration:
    """Fundamental solution continued counterclockwise around |lambda| = radius."""
    if not 0 < radius < math.inf:
        raise SystemError_(f"radius must be finite and positive, not {radius}")
    im, k = circle_coefficients(sys, radius)
    s = sys.s
    # rho is 0 where K underflows at M = 0, and infinite where K overflows
    rho = np.linalg.norm(im, 2) + np.linalg.norm(k, 2) if np.isfinite(k).all() else math.inf
    need = 2 * np.pi * rho / STEP_NORM
    if not 0 < need < math.inf:
        raise SystemError_(f"coefficient norm rho = {rho:.3g} on |lambda| = {radius:g}"
                           " is not finite and positive")
    full = max(MIN_STEPS, 2 ** math.ceil(math.log2(need)))
    per = 2 * math.ceil(full / (2 * s))  # even, so the Richardson run has per/2 steps a sector
    steps = s * per
    if steps > MAX_STEPS:
        raise SystemError_(f"|lambda| = {radius:g} needs {steps} Magnus steps,"
                           f" above the cap MAX_STEPS = {MAX_STEPS}")
    phases = sector_phases(s)[:, None]
    # one exponential for the sector's steps and the Richardson run's per/2 steps
    h = np.repeat(2 * np.pi / np.array([steps, steps // 2]), (per, per // 2))
    index = np.concatenate((np.arange(per), np.arange(per // 2)))
    both = _exp_taylor(_magnus_generators(im, k, h, index))
    props = both[:per]
    sector = phases * tree_product(props.astype(np.clongdouble))
    mono = np.linalg.matrix_power(sector, s)
    half = np.linalg.matrix_power(phases * tree_product(both[per:].astype(np.clongdouble)), s)
    scale = np.linalg.norm(mono)
    estimate = float(np.linalg.norm(mono - half) / (63 * scale))
    # the same propagators multiplied and powered in double precision
    double = np.linalg.matrix_power(phases.astype(complex) * tree_product(props), s)
    rounding = float(np.linalg.norm(mono - double) / scale)
    if not estimate <= ERROR_TOL:  # NaN too
        # a difference Phi_N - Phi_{N/2} at the level of the rounding noise is no truncation error
        if not 63 * estimate <= ROUNDING_MARGIN * rounding:
            raise IntegratorError(
                f"integrator failed: Richardson estimate {estimate:.3g} above {ERROR_TOL:g}"
                f" with {steps} Magnus steps, rounding noise {rounding:.3g}"
            )
    nfev = len(_GL_NODES) * (per + per // 2)
    return Integration(
        mono.astype(complex), sector.astype(complex), nfev, steps, estimate, rounding
    )


@lru_cache(maxsize=None)
def _p0_inverse_power(type_name: str) -> Tuple[np.ndarray, complex]:
    """P0^{-s} in the registered representation and its central scalar, formed and checked once."""
    rep = registered_representation(type_name)
    p0_inv_s = np.linalg.matrix_power(np.linalg.inv(rep.p0_matrix()), rep.rs.coxeter_number)
    central = _central_factor(p0_inv_s)
    p0_inv_s.flags.writeable = False
    return p0_inv_s, central


def _central_factor(m: np.ndarray) -> complex:
    """The scalar c with m = c I, for m = P0^{-s} in the standard representation."""
    c = complex(m[0, 0])
    if not np.max(np.abs(m - c * np.eye(len(m)))) < 1e-9:  # NaN fails too
        raise ConsistencyError("P0^{-s} must be central in the standard representation")
    return c


def exponent_charpoly(m_entries: Sequence[Q]) -> np.ndarray:
    """prod_j (x - e^{2 pi i m_j}), each exact m_j reduced mod 1 before rounding."""
    return np.poly(np.exp(2j * np.pi * np.array([float(m % 1) for m in m_entries])))


def numerical_monodromy(sys: MeromorphicSystem, radius: float = 1.0) -> MonodromyReport:
    """Monodromy spectrum against the prediction P0^{-s} (M0)^s.

    The comparison is at conjugacy-class level (characteristic polynomials):
    the numerical fundamental solution differs from the canonical sector
    solutions by an unknowable constant factor.  The prediction is also
    compared with the exact exponent at infinity (exponent_residual).
    """
    integ = integrate_monodromy(sys, radius)

    sd = stokes_from_asymptotics(f"A{sys.n}", sys.m_coords())
    s = sys.s
    m0s = np.linalg.matrix_power(sd.m0, s)
    p0_inv_s, central = _p0_inverse_power(str(sys.rep.rs.type))
    pred = p0_inv_s @ m0s

    # eig(Phi(2 pi)) = eig(sector)^s, and the sector factor's spectrum is the better conditioned
    cp_num = np.poly(np.linalg.eigvals(integ.sector) ** s)
    cp_pred = np.poly(pred)
    resid = float(np.max(np.abs(cp_num - cp_pred)))
    exp_resid = float(np.max(np.abs(cp_pred - exponent_charpoly(sys.m_entries))))
    return MonodromyReport(
        n=sys.n,
        k=sys.k,
        z=sys.z,
        radius=radius,
        numerical_charpoly=cp_num,
        predicted_charpoly=cp_pred,
        max_coeff_residual=resid,
        exponent_residual=exp_resid,
        error_estimate=integ.error_estimate,
        rounding_noise=integ.rounding_noise,
        central_factor=central,
        nfev=integ.nfev,
        steps=integ.steps,
    )
