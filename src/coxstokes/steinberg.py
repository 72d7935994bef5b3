"""Stokes data from asymptotics: alcove, torus characters, cross-section.

The canonical Stokes element is assembled as M0 = K1 K2 A_gamma where K1 is
unipotent on the Pi_2 root spaces, K2 on gamma(-Pi_1), and A_gamma is the
Coxeter representative produced by the cross-section's Weyl factors.  Its
conjugacy class is pinned to that of the torus element e^{2 pi i (m+x0)/s}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .assignment import linear_assignment
from .characters import character_value, fundamental_characters
from .chevalley import build_chevalley
from .coxeter import Bipartition, bipartition, coxeter_element
from .rootcore import Root, RootSystem, build_root_system, diagram_involution
from .weightrep import (
    NilpotentExp,
    Representation,
    registered_representation,
    weyl_representative,
)

FACTOR_TOL = 1e-8
# draws of _random_admissible_midpoint before it gives up
MIDPOINT_DRAWS = 10_000


class InadmissibleError(ValueError):
    """Asymptotic data violates alpha_i(m) >= -1 for some i in 0..l."""


class ConsistencyError(ArithmeticError):
    """A pipeline identity (factorization, class match) failed numerically."""


# -- alcove -------------------------------------------------------------------


@dataclass(frozen=True)
class AlcovePoint:
    y: Tuple[Q, ...]
    slacks_simple: Tuple[Q, ...]     # alpha_i(y), must be >= 0
    slack_psi: Q                     # 1 - psi(y), must be >= 0
    admissible: bool
    sigma_fixed: bool


def admissible_m(rs: RootSystem, m: Sequence) -> bool:
    """alpha_i(m) >= -1 for i = 0..l, with alpha_0 = -psi."""
    if any(rs.pairing(a, m) < -1 for a in rs.simple_roots):
        return False
    return rs.pairing(rs.psi, m) <= 1


def alcove_map(rs: RootSystem, m: Sequence) -> AlcovePoint:
    """y = (m + x0)/s with the alcove inequality slacks.

    The admissibility verdict is computed both from alpha_i(m) >= -1 and from
    the alcove inequalities at y; the two must agree (that equivalence is the
    content of the proposition, so it is asserted here).
    """
    s = rs.coxeter_number
    m = tuple(Q(c) if isinstance(c, int) else c for c in m)
    exact = all(isinstance(c, Q) for c in m)
    if not exact:
        m = tuple(Q(float(c)).limit_denominator(10**12) for c in m)
    y = tuple((mi + x0i) / s for mi, x0i in zip(m, rs.x0_coords))
    slacks = tuple(rs.pairing(a, y) for a in rs.simple_roots)
    slack_psi = 1 - rs.pairing(rs.psi, y)
    alcove_ok = all(sl >= 0 for sl in slacks) and slack_psi >= 0
    if alcove_ok != admissible_m(rs, m):
        raise ConsistencyError("alcove inequalities disagree with admissibility")
    nu = diagram_involution(rs)
    fixed = all(y[i] == y[nu[i] - 1] for i in range(rs.rank))
    return AlcovePoint(y, slacks, slack_psi, alcove_ok, fixed)


def certify_alcove_membership(rs: RootSystem, m: Sequence) -> bool:
    """Membership of y in the alcove (resp. its sigma-fixed part for A/D_odd/E6)."""
    pt = alcove_map(rs, m)
    t = rs.type
    needs_sigma = t.family == "A" or (t.family == "D" and t.rank % 2 == 1) or (
        t.family == "E" and t.rank == 6
    )
    return pt.admissible and (pt.sigma_fixed or not needs_sigma)


# -- torus character values ----------------------------------------------------


def torus_character_values(rs: RootSystem, tables, y) -> np.ndarray:
    """t_i = chi_i(e^{2 pi i y}) over the fundamental character tables."""
    return np.array([character_value(rs, tb, y) for tb in tables])


# -- cross-section -------------------------------------------------------------


@dataclass
class CrossSectionFactors:
    gamma_order: Tuple[int, ...]   # Gamma: Pi_2 block then Pi_1 block (1-based)
    k: int                         # |Pi_2|
    e_parts: Tuple[np.ndarray, ...]
    n_parts: Tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.e_parts[0].shape[0]

    def full(self) -> np.ndarray:
        pairs = zip(self.e_parts, self.n_parts)
        return _product([f for pair in pairs for f in pair], self.dim)

    def a_gamma(self) -> np.ndarray:
        return _product(self.n_parts, self.dim)

    def rewritten(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The form (K1, K2, A_gamma) with C = K1 K2 A_gamma.

        K1 collects the Pi_2 unipotent block; K2 is the Pi_1 block conjugated
        past the Pi_2 Weyl factors, landing on the gamma(-Pi_1) root spaces.
        """
        k1 = _product(self.e_parts[: self.k], self.dim)
        nblock = _product(self.n_parts[: self.k], self.dim)
        k2 = nblock @ _product(self.e_parts[self.k:], self.dim) @ np.linalg.inv(nblock)
        return k1, k2, self.a_gamma()


def _product(mats: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The left-to-right product of n x n matrices, starting from the identity."""
    out = np.eye(n, dtype=complex)
    for a in mats:
        out = out @ a
    return out


def steinberg_section(
    rep: Representation, bip: Bipartition, t: Sequence[complex]
) -> CrossSectionFactors:
    """C^Gamma(t) = E_1(t_1) n_1 ... E_l(t_l) n_l in the given representation.

    Gamma orders Pi_2 ascending then Pi_1 ascending; E_i(t) = exp(t e_{beta_i})
    on the Chevalley generator, n_i = exp(-e) exp(f) exp(-e).  With these
    choices chi(C^Gamma(t)) = t holds literally in type A (dual pairing);
    other types compose with a unipotent-triangular coordinate change.

    Only E_i(t) depends on t.  It is the finite series sum_k t^k e^k/k! of the
    nilpotent generator, whose terms, like n_i, are built once per
    representation and node (``Representation.section_factors``).
    """
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    t = tuple(complex(c) for c in t)
    if len(t) != len(order):
        raise ValueError("need one parameter per simple root")
    e_parts = []
    n_parts = []
    for pos, node in enumerate(order):
        exp_e, n_i = rep.section_factors(node - 1)
        e_parts.append(exp_e(t[pos]))
        n_parts.append(n_i)
    return CrossSectionFactors(order, len(bip.i2), tuple(e_parts), tuple(n_parts))


# -- Stokes data ----------------------------------------------------------------


@dataclass
class StokesData:
    type_name: str
    rep_name: str
    m: Tuple[Q, ...]
    y: Tuple[Q, ...]
    t: Tuple[complex, ...]
    gamma_order: Tuple[int, ...]
    m0: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    a_gamma: np.ndarray            # Coxeter representative used as torus anchor
    p0: np.ndarray                 # principal element exp(2 pi i x0 / s)
    k1_support: Tuple[Root, ...]
    k2_support: Tuple[Root, ...]
    factorization_residual: float
    class_residual: float
    adjoint_class_residual: float = 0.0

    def to_jsonable(self) -> Dict:
        def mat(a):
            return [
                [[round(float(z.real), 15), round(float(z.imag), 15)] for z in row]
                for row in np.asarray(a)
            ]

        return {
            "schema_version": 1,
            "type": self.type_name,
            "rep": self.rep_name,
            "m": [str(c) for c in self.m],
            "y": [str(c) for c in self.y],
            "t": [[z.real, z.imag] for z in self.t],
            "gamma_order": list(self.gamma_order),
            "m0": mat(self.m0),
            "k1": mat(self.k1),
            "k2": mat(self.k2),
            "a_gamma": mat(self.a_gamma),
            "p0": mat(self.p0),
            "k1_support": [list(r) for r in self.k1_support],
            "k2_support": [list(r) for r in self.k2_support],
            "factorization_residual": self.factorization_residual,
            "class_residual": self.class_residual,
            "adjoint_class_residual": self.adjoint_class_residual,
        }


def _target_eigenvalues(rep: Representation, y) -> np.ndarray:
    return np.exp(2j * np.pi * rep.weight_values(y))


def _gauss_newton(
    resid, t0, tol: float, iters: int, restarts: int, seed: int
) -> Tuple[np.ndarray, float]:
    """Damped Gauss-Newton on r(t) = max |resid(t)|, restarted around t0.

    A step solves the forward-difference Jacobian (h = 1e-7 max(1, |t|_inf))
    by least squares, then halves up to 30 times until the trial residual is
    finite and below r; an attempt ends when no halving is, or after `iters`
    steps.  Attempt k + 1 restarts from t0 + 0.3 (k + 1) (N + iN), N standard
    normal from default_rng(seed).  Returns the first iterate with r < tol,
    else the best iterate evaluated, with its r.
    """
    l = len(t0)
    rng = np.random.default_rng(seed)
    t = np.array(t0, dtype=complex)
    best = None
    for attempt in range(restarts):
        for _ in range(iters):
            F = resid(t)
            r = float(np.max(np.abs(F)))
            if best is None or r < best[0]:
                best = (r, t.copy())
            if r < tol:
                return t, r
            h = 1e-7 * max(1.0, float(np.max(np.abs(t))))
            J = np.empty((len(F), l), dtype=complex)
            for j in range(l):
                tp = t.copy()
                tp[j] += h
                J[:, j] = (resid(tp) - F) / h
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
            lam = 1.0
            for _ in range(30):
                cand = t + lam * step
                r_cand = np.max(np.abs(resid(cand)))
                if np.isfinite(r_cand) and r_cand < r:
                    t = cand
                    break
                lam /= 2
            else:
                break
        t = np.array(t0, dtype=complex) + 0.3 * (attempt + 1) * (
            rng.normal(size=l) + 1j * rng.normal(size=l)
        )
    return best[1], best[0]


class _AdjointSection:
    """Cross-section factors in the adjoint representation, for class pinning.

    The registered representation's characteristic polynomial alone does not
    separate regular classes in the exceptional types (e.g. e_2 of the 26-dim
    F4 representation only sees chi_52 + chi_273); adding the adjoint
    characteristic polynomial does, and its torus targets are exact root data.
    """

    def __init__(self, rs: RootSystem, order: Tuple[int, ...]):
        alg = build_chevalley(str(rs.type))
        self.rs = rs
        self.alg = alg
        self.order = order
        self.k = len(bipartition(rs).i2)
        # ad-matrices of the Chevalley generators: e_i = e_{alpha_i}/L_i, f_i = e_{-alpha_i}
        self.exp_ad_e: Dict[int, NilpotentExp] = {}
        self.n_ad: Dict[int, np.ndarray] = {}
        for i in order:
            a = rs.simple_roots[i - 1]
            li = float(rs.inner(a, a)) / 2
            exp_e = NilpotentExp(alg.ad_dense(alg.e(a)) / li)
            exp_f = NilpotentExp(alg.ad_dense(alg.e(tuple(-c for c in a))))
            self.exp_ad_e[i] = exp_e
            self.n_ad[i] = weyl_representative(exp_e, exp_f)
        l = rs.rank
        self._root_pairing = np.array(
            [
                [float(sum(r[p] * rs.form[p][q] for p in range(l))) for q in range(l)]
                for r in rs.roots
            ]
        )

    def factors(self, t: Sequence[complex]) -> CrossSectionFactors:
        e_parts = tuple(self.exp_ad_e[i](t[pos]) for pos, i in enumerate(self.order))
        n_parts = tuple(self.n_ad[i] for i in self.order)
        return CrossSectionFactors(self.order, self.k, e_parts, n_parts)

    def section(self, t: Sequence[complex]) -> np.ndarray:
        return self.factors(t).full()

    def target_eig(self, y) -> np.ndarray:
        yv = np.array([float(c) for c in y])
        eig = np.exp(2j * np.pi * (self._root_pairing @ yv))
        return np.concatenate([eig, np.ones(self.rs.rank)])


@lru_cache(maxsize=None)
def _adjoint_section(type_name: str, order: Tuple[int, ...]) -> _AdjointSection:
    """The adjoint cross-section factors, built once per type and Gamma order."""
    return _AdjointSection(build_root_system(type_name), order)


# Adjoint class certificate threshold.  Calibration: wrong classes score
# ~1e0 and classes at distance 1/50 in m already ~3e-2, while true solutions
# stay below ~1e-3 away from the deep degeneracies; 1e-2 keeps margin on
# either side.  Near the alcove vertices the target spectra become defective
# (unipotent-class limits), where float eigenvalues of the section spread by
# eps^(1/k); the enforceable threshold widens accordingly via _cert_tol.
SELECT_TOL = 1e-2
# Registered residual every route's answer must reach (resonant targets floor
# the coefficient residual near sqrt(eps)), and the coefficient solves' target.
CLASS_TOL = 1e-8
SOLVE_TOL = 1e-11


def _cert_tol(target_eig: np.ndarray) -> float:
    """Enforceable certificate threshold for these adjoint targets.

    k-fold degenerate targets make the section matrix defective there, and
    float spectra of defective matrices scatter by roughly eps^(1/k); below
    that scale the certificate carries no information (all unipotent classes
    share every spectral invariant), so enforcement degrades gracefully.
    """
    order = np.lexsort((target_eig.imag, target_eig.real))
    kmax = 1
    k = 0
    while k < len(order):
        j = k + 1
        while j < len(order) and abs(
            target_eig[order[j]] - target_eig[order[j - 1]]
        ) <= 1e-6:
            j += 1
        kmax = max(kmax, j - k)
        k = j
    return max(SELECT_TOL, 3.0 * (1e-12) ** (1.0 / kmax))


def _power_sums(eig: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """p_k = sum_j eig_j^k for each k in ks."""
    return (eig[None, :] ** ks[:, None]).sum(axis=1)


def _power_sum_certificate(section_eig: np.ndarray, target_eig: np.ndarray) -> float:
    """Normalized power-sum mismatch max_{k<=28} |p_k(section) - p_k(target)|/dim.

    Characteristic-polynomial coefficients are hopeless here (at dim(g) ~
    50-80 they respond to 1e-12 eigenvalue perturbations at O(1) through the
    one-root-removed subproducts), and eigenvalue matching breaks at heavy
    resonance, where a sqrt(eps)-accurate parameter point splits degenerate
    clusters beyond their gaps.  Traces of powers are smooth in the section
    parameters and conditioning-free: measured on solved points they stay
    below ~3e-4 even at the worst resonances, while classes with m shifted by
    1/50 already differ at 3e-2 and generic wrong classes at ~1e0.  A section
    blown up far from the class overflows the powers; it scores inf.
    """
    ks = np.arange(1, 29)
    with np.errstate(over="ignore", invalid="ignore"):
        mismatch = float(np.max(np.abs(_power_sums(section_eig, ks) - _power_sums(target_eig, ks))))
    return mismatch / len(target_eig) if np.isfinite(mismatch) else np.inf


class _ClassTarget(NamedTuple):
    """What the class solver needs at one point m."""

    t0: np.ndarray              # character values at y, the seed (exact in type A)
    reg_eig: np.ndarray         # registered target eigenvalues
    poly: np.ndarray            # their characteristic polynomial
    ad_eig: np.ndarray | None   # adjoint target eigenvalues, None in type A
    cert_tol: float             # _cert_tol(ad_eig), inf in type A


def _solve_power_sums(
    rep: Representation, bip: Bipartition, adj: _AdjointSection, pt: _ClassTarget
) -> Tuple[np.ndarray, float]:
    """Gauss-Newton on joint power sums tr(C^k) of both representations.

    Power sums are smooth in the section parameters with no resonant
    conditioning collapse, so the solve reaches machine precision even when
    the target spectra are heavily degenerate (where coefficient or
    eigenvalue-matching systems floor out near sqrt(eps)).
    """
    kr = np.arange(1, min(len(pt.reg_eig), 24) + 1)
    ka = np.arange(1, min(len(pt.ad_eig), 28) + 1)
    pr = _power_sums(pt.reg_eig, kr) / len(pt.reg_eig)
    pa = _power_sums(pt.ad_eig, ka) / len(pt.ad_eig)

    def resid(t):
        er = np.linalg.eigvals(steinberg_section(rep, bip, t).full())
        ea = np.linalg.eigvals(adj.section(t))
        # a trial step far off the class can overflow the powers; the line
        # search rejects the non-finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            fr = _power_sums(er, kr) / len(er) - pr
            fa = _power_sums(ea, ka) / len(ea) - pa
        return np.concatenate([fr, fa])

    return _gauss_newton(resid, pt.t0, 1e-12, 60, 3, seed=1)


def _eigen_rescue(
    rep: Representation,
    bip: Bipartition,
    adj: _AdjointSection,
    t_seed: np.ndarray,
    pt: _ClassTarget,
) -> np.ndarray:
    """Gauss-Newton on assignment-matched eigenvalues of both representations.

    Characteristic-polynomial coefficients cannot tell two classes apart when
    their registered spectra agree; the joint eigenvalue residual can, and at
    generic (simple-spectrum) targets it is far better conditioned than the
    coefficient system, so it pulls a wrong-fiber point onto the right one.
    """
    def resid(t):
        out = []
        for mat, tgt in (
            (steinberg_section(rep, bip, t).full(), pt.reg_eig),
            (adj.section(t), pt.ad_eig),
        ):
            eig = np.linalg.eigvals(mat)
            cost = np.abs(eig[:, None] - tgt[None, :])
            ri, ci = linear_assignment(cost)
            d = np.zeros(len(tgt), dtype=complex)
            d[ci] = eig[ri] - tgt[ci]
            out.append(d)
        return np.concatenate(out)

    # at most 80 steps: the 81st evaluation only scores the 80th, so the
    # rescue returns its last accepted step, which has the least residual
    return _gauss_newton(resid, t_seed, 1e-12, 81, 1, seed=0)[0]


def _solve_class_with_continuation(
    rs: RootSystem,
    rep: Representation,
    bip: Bipartition,
    order: Tuple[int, ...],
    m: Tuple[Q, ...],
) -> Tuple[np.ndarray, float, float]:
    """Section parameters for the class of e^{2 pi i (m+x0)/s}.

    Returns (t, registered residual r, adjoint certificate).  A point is
    accepted when r <= CLASS_TOL and its adjoint power-sum certificate is at
    most _cert_tol of the adjoint targets: fiber components of the registered
    polynomial that belong to other classes score around 1.  In type A the
    character seed is the exact solution and the certificate is 0.  The
    routes, each tried only while the point at hand is not accepted:

    1. power-sum primary: Gauss-Newton on the joint power sums of the
       registered and adjoint sections, from the character seed;
    2. polish: Newton on the registered characteristic polynomial from there
       (in type A from the seed); the solve ends here when the power sums
       reached 1e-10 and the certificate holds;
    3. eigen rescue: Gauss-Newton on the matched eigenvalues of both
       representations, from the polished point (from the seed if its r
       failed), then polish;
    4. straight path: the solution tracked along tau*m from tau = 0
       (admissible by convexity), every step accepted, so the branch cannot
       hop classes; a stalled path jumps to m with the eigen rescue;
    5. four detours through random admissible midpoints, tracked the same way
       (the midpoints are drawn before any path is tracked);
    6. last resort: eigen rescue and polish from where the continuation ended,
       when its certificate fails.

    When no route gives an accepted point, ConsistencyError names the last
    route tried, r, the certificate and the threshold applied.
    """
    s = rs.coxeter_number
    adj = None if rs.type.family == "A" else _adjoint_section(str(rs.type), order)
    tables = [fundamental_characters(str(rs.type), node) for node in order]

    def data_at(mvec) -> _ClassTarget:
        y = tuple((mi + x0i) / s for mi, x0i in zip(mvec, rs.x0_coords))
        t0 = np.array([character_value(rs, tb, y) for tb in tables])
        reg_eig = _target_eigenvalues(rep, y)
        poly = np.poly(np.diag(reg_eig))
        if adj is None:
            return _ClassTarget(t0, reg_eig, poly, None, np.inf)
        ad_eig = adj.target_eig(y)
        return _ClassTarget(t0, reg_eig, poly, ad_eig, _cert_tol(ad_eig))

    def certificate(t, pt: _ClassTarget) -> float:
        if adj is None:
            return 0.0
        return _power_sum_certificate(np.linalg.eigvals(adj.section(t)), pt.ad_eig)

    def certified(t, r, pt: _ClassTarget) -> bool:
        """The acceptance test of every route."""
        return r <= CLASS_TOL and certificate(t, pt) <= pt.cert_tol

    def polish(t_start, pt: _ClassTarget, tol=SOLVE_TOL, restarts=1):
        """Newton on the registered characteristic polynomial from t_start."""

        def resid(t):
            return np.poly(steinberg_section(rep, bip, t).full()) - pt.poly

        return _gauss_newton(resid, t_start, tol, 60, restarts, seed=0)

    def rescue(t, pt: _ClassTarget):
        return polish(_eigen_rescue(rep, bip, adj, t, pt), pt)

    def track(path):
        """Continuation along path(0) = 0 .. path(1) = m, every step accepted.

        Branch collisions force a bisection stall instead of a class hop.
        """
        tau_done = Q(0)
        p_done = data_at(path(Q(0)))
        t_sol, r0 = polish(p_done.t0, p_done, restarts=4)
        if not certified(t_sol, r0, p_done):
            raise ConsistencyError(f"certified class solve failed at m = 0: {r0}")
        pending = [Q(1)]
        while pending:
            tau = pending[-1]
            if tau - tau_done < Q(1, 512):
                if adj is not None:
                    # stalled: jump to the endpoint with the eigenvalue system,
                    # seeded from the certified warm point
                    end = data_at(path(Q(1)))
                    t_p, r_p = rescue(t_sol + (end.t0 - p_done.t0), end)
                    if certified(t_p, r_p, end):
                        return t_p
                raise ConsistencyError(
                    f"continuation stalled between tau = {tau_done} and {tau}"
                )
            p_tau = data_at(path(tau))
            t_try, r = polish(t_sol + (p_tau.t0 - p_done.t0), p_tau, tol=CLASS_TOL)
            if certified(t_try, r, p_tau):
                tau_done, t_sol, p_done = tau, t_try, p_tau
                pending.pop()
            else:
                pending.append((tau_done + tau) / 2)
        return t_sol

    pt = data_at(m)

    def failure(route, t, r, why="") -> ConsistencyError:
        return ConsistencyError(
            f"class solve failed, last route {route}{why}: registered residual "
            f"{r:.3g} (bound {CLASS_TOL:g}), adjoint certificate "
            f"{certificate(t, pt):.3g} (threshold _cert_tol = {pt.cert_tol:.3g})"
        )

    def verdict(route, t, r, cert):
        if r > CLASS_TOL or cert > pt.cert_tol:
            raise failure(route, t, r)
        return t, float(r), float(cert)

    route = "polish"
    if adj is None:
        t, r = polish(pt.t0, pt, restarts=2)
    else:
        t_ps, r_ps = _solve_power_sums(rep, bip, adj, pt)
        t, r = polish(t_ps, pt)
        cert = certificate(t, pt)
        if r_ps < 1e-10 and cert <= pt.cert_tol:
            return verdict(route, t, r, cert)
        if not certified(t, r, pt):
            route = "eigen rescue"
            t_p, r_p = rescue(t if r <= CLASS_TOL else pt.t0, pt)
            if certified(t_p, r_p, pt):
                t, r = t_p, r_p

    if not certified(t, r, pt):
        # branch collisions along the straight path sit on thin sets; detours
        # through random admissible midpoints generically avoid them
        rng = np.random.default_rng(7)
        try:
            mids = [_random_admissible_midpoint(rs, m, rng) for _ in range(4)]
        except ConsistencyError as exc:
            raise failure(route, t, r, f" ({exc})") from exc
        paths = [("straight path", lambda tau: tuple(c * tau for c in m))]
        for k, mid in enumerate(mids):

            def detour(tau, mid=mid):
                if tau <= Q(1, 2):
                    return tuple(c * 2 * tau for c in mid)
                lam = 2 * tau - 1
                return tuple(a + (b - a) * lam for a, b in zip(mid, m))

            paths.append((f"detour {k + 1}", detour))
        for route, path in paths:
            try:
                t_sol = track(path)
                break
            except ConsistencyError as exc:
                last_exc = exc
        else:
            raise failure(route, t, r, f" ({last_exc})") from last_exc
        # best-effort polish at the final point
        t, r = polish(t_sol, pt)

    cert = certificate(t, pt)
    if cert > pt.cert_tol:
        route = "last resort"
        t, r = rescue(t, pt)
        cert = certificate(t, pt)
    if adj is None and np.max(np.abs(t - pt.t0)) > 1e-6 * max(1.0, np.max(np.abs(pt.t0))):
        # chi(C(t)) = t exactly in type A: the character values must survive
        raise ConsistencyError("type-A section parameters drifted from characters")
    return verdict(route, t, r, cert)


def _random_admissible_midpoint(rs: RootSystem, m, rng) -> Tuple[Q, ...]:
    """A random admissible point, comparable in size to m, for path detours."""
    from .scalars import mat_inv, mat_vec

    ginv = mat_inv(rs.form)
    span = max(1.0, max(abs(float(c)) for c in m))
    for _ in range(MIDPOINT_DRAWS):
        a = [Q(int(x), 16) for x in rng.integers(-16, int(16 * span) + 1, size=rs.rank)]
        cand = tuple(mat_vec(ginv, a))
        if admissible_m(rs, cand):
            return cand
    raise ConsistencyError(f"no admissible detour midpoint in {MIDPOINT_DRAWS} draws")


def stokes_from_asymptotics(
    type_name: str,
    m: Sequence,
    rep: Representation | None = None,
) -> StokesData:
    """Assemble the canonical Stokes element from asymptotic data m.

    m is given in H_{alpha_i} coordinates and must satisfy alpha_i(m) >= -1
    for i = 0..l.  The parameters t come from the fundamental characters at
    y = (m+x0)/s (paired with the weight dual to each Gamma entry), corrected
    so that M0 lies in the conjugacy class of e^{2 pi i y} as seen by the
    registered representation.
    """
    rs = build_root_system(type_name)
    if rep is None:
        rep = registered_representation(type_name)
    pt = alcove_map(rs, m)
    if not pt.admissible:
        raise InadmissibleError(
            f"m inadmissible: simple slacks {pt.slacks_simple}, psi slack {pt.slack_psi}"
        )
    y = pt.y
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    m_frac = _as_fractions(m)
    t, class_res, adjoint_cert = _solve_class_with_continuation(rs, rep, bip, order, m_frac)

    cs = steinberg_section(rep, bip, t)
    m0 = cs.full()
    k1, k2, a_gamma = cs.rewritten()
    resid = np.max(np.abs(m0 - k1 @ k2 @ a_gamma))
    scale = max(1.0, np.max(np.abs(m0)))
    if resid > FACTOR_TOL * scale:
        raise ConsistencyError(f"M0 != K1 K2 A_gamma: residual {resid}")

    gamma = coxeter_element(rs, bip)
    k1_support = tuple(rs.simple_roots[i - 1] for i in sorted(bip.i2))
    k2_support = tuple(
        gamma.apply(tuple(-c for c in rs.simple_roots[i - 1])) for i in sorted(bip.i1)
    )
    return StokesData(
        type_name=str(rs.type),
        rep_name=rep.name,
        m=m_frac,
        y=y,
        t=tuple(complex(c) for c in t),
        gamma_order=order,
        m0=m0,
        k1=k1,
        k2=k2,
        a_gamma=a_gamma,
        p0=rep.p0_matrix(),
        k1_support=k1_support,
        k2_support=k2_support,
        factorization_residual=float(resid),
        class_residual=float(class_res),
        adjoint_class_residual=float(adjoint_cert),
    )


def _as_fractions(m) -> Tuple[Q, ...]:
    out = []
    for c in m:
        out.append(c if isinstance(c, Q) else Q(float(c)).limit_denominator(10**12))
    return tuple(out)


# -- support verification in the adjoint representation -------------------------


def _unipotent_log(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    x = u - np.eye(n)
    out = np.zeros_like(u)
    term = np.eye(n, dtype=complex)
    for kk in range(1, n + 1):
        term = term @ x
        if not np.any(np.abs(term) > 1e-300):
            break
        out += ((-1) ** (kk + 1) / kk) * term
    return out


def verify_factor_supports(sd: StokesData, tol: float = FACTOR_TOL) -> Dict[str, float]:
    """log K1 / log K2 lie in the claimed root spaces, checked in ad(g).

    Rewrites the cached adjoint cross-section factors at sd.t as
    (K1, K2, A_gamma), as for M0, and expands their logarithms over the ad-matrices of the
    supporting root vectors.
    """
    adj = _adjoint_section(sd.type_name, sd.gamma_order)
    alg = adj.alg
    k1ad, k2ad, _ = adj.factors(sd.t).rewritten()

    out = {}
    for name, mat, support in (
        ("k1", k1ad, sd.k1_support),
        ("k2", k2ad, sd.k2_support),
    ):
        x = _unipotent_log(mat)
        basis = [alg.ad_dense(alg.e(r)).reshape(-1) for r in support]
        A = np.stack(basis, axis=1)
        coef, *_ = np.linalg.lstsq(A, x.reshape(-1), rcond=None)
        res = float(np.max(np.abs(A @ coef - x.reshape(-1))))
        if res > tol * max(1.0, float(np.max(np.abs(x)))):
            raise ConsistencyError(f"log {name} leaves its root-space span: {res}")
        out[name] = res
    return out


# -- spectrum check --------------------------------------------------------------


@dataclass
class SemisimpleSpectrumReport:
    regular: bool
    charpoly_residual: float
    eigenvalue_residual: float | None
    ok: bool


def semisimple_spectrum_check(
    sd: StokesData,
    rep: Representation | None = None,
    eig_tol: float = 1e-7,
    poly_tol: float = 1e-7,
) -> SemisimpleSpectrumReport:
    """Spectrum of M0 against {e^{2 pi i mu(y)} : mu weight of the rep}.

    At regular y the eigenvalues must match pointwise; at resonant y (colliding
    predicted eigenvalues) only characteristic polynomials are compared, since
    a unipotent factor is invisible to the spectrum.
    """
    if rep is None:
        rep = registered_representation(sd.type_name)
    pred = _target_eigenvalues(rep, sd.y)
    got_poly = np.poly(sd.m0)
    want_poly = np.poly(np.diag(pred))
    poly_res = float(np.max(np.abs(got_poly - want_poly)))
    dists = np.abs(pred[:, None] - pred[None, :]) + np.eye(len(pred))
    regular = bool(np.min(dists) > 1e-8)
    eig_res = None
    if regular:
        got = np.linalg.eigvals(sd.m0)
        cost = np.abs(pred[:, None] - got[None, :])
        ri, ci = linear_assignment(cost)
        eig_res = float(cost[ri, ci].max())
    ok = poly_res <= poly_tol and (eig_res is None or eig_res <= eig_tol)
    return SemisimpleSpectrumReport(regular, poly_res, eig_res, ok)
