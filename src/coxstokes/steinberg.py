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
from typing import Dict, Sequence, Tuple

import numpy as np

from .characters import (
    all_fundamental_tables,
    character_value,
    character_value_fast,
    weight_pairing,
)
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

    def full(self) -> np.ndarray:
        out = np.eye(self.e_parts[0].shape[0], dtype=complex)
        for E, Nn in zip(self.e_parts, self.n_parts):
            out = out @ E @ Nn
        return out

    def a_gamma(self) -> np.ndarray:
        out = np.eye(self.n_parts[0].shape[0], dtype=complex)
        for Nn in self.n_parts:
            out = out @ Nn
        return out

    def rewritten(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The form (K1, K2, A_gamma) with C = K1 K2 A_gamma.

        K1 collects the Pi_2 unipotent block; K2 is the Pi_1 block conjugated
        past the Pi_2 Weyl factors, landing on the gamma(-Pi_1) root spaces.
        """
        n = self.e_parts[0].shape[0]
        k1 = np.eye(n, dtype=complex)
        for E in self.e_parts[: self.k]:
            k1 = k1 @ E
        tail = np.eye(n, dtype=complex)
        for E in self.e_parts[self.k:]:
            tail = tail @ E
        nblock = np.eye(n, dtype=complex)
        for Nn in self.n_parts[: self.k]:
            nblock = nblock @ Nn
        k2 = nblock @ tail @ np.linalg.inv(nblock)
        return k1, k2, self.a_gamma()


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


def _charpoly(mat: np.ndarray) -> np.ndarray:
    return np.poly(mat)


def _solve_section_parameters(
    rep: Representation,
    bip: Bipartition,
    t0: np.ndarray,
    target_poly: np.ndarray,
    tol: float = 1e-11,
    restarts: int = 4,
) -> Tuple[np.ndarray, float]:
    """Find t with charpoly(C(t)) = target via damped Gauss-Newton.

    In type A the initial guess (the paired character values) is already the
    exact solution; elsewhere it is the zeroth order of the triangular
    coordinate change and Newton converges in a few steps.
    """
    l = len(t0)

    def resid(t):
        return _charpoly(steinberg_section(rep, bip, t).full()) - target_poly

    rng = np.random.default_rng(0)
    t = np.array(t0, dtype=complex)
    best = None
    for attempt in range(restarts):
        for _ in range(60):
            F = resid(t)
            r = np.max(np.abs(F))
            if best is None or r < best[0]:
                best = (r, t.copy())
            if r < tol:
                return t, float(r)
            h = 1e-7 * max(1.0, np.max(np.abs(t)))
            J = np.empty((len(F), l), dtype=complex)
            for j in range(l):
                tp = t.copy()
                tp[j] += h
                J[:, j] = (resid(tp) - F) / h
            step, *_ = np.linalg.lstsq(J, -F, rcond=None)
            lam = 1.0
            for _ in range(30):
                cand = t + lam * step
                if np.max(np.abs(resid(cand))) < r:
                    t = cand
                    break
                lam /= 2
            else:
                break
        t = np.array(t0, dtype=complex) + 0.3 * (attempt + 1) * (
            rng.normal(size=l) + 1j * rng.normal(size=l)
        )
    r, t = best
    return t, float(r)


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
        self.dim = alg.dim
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

    def section(self, t: Sequence[complex]) -> np.ndarray:
        out = np.eye(self.dim, dtype=complex)
        for pos, i in enumerate(self.order):
            out = out @ self.exp_ad_e[i](t[pos]) @ self.n_ad[i]
        return out

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


def _power_sum_certificate(section_eig: np.ndarray, target_eig: np.ndarray, order: int = 28) -> float:
    """Max normalized power-sum mismatch max_k |p_k(section) - p_k(target)|/dim.

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
    ks = np.arange(1, order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        mismatch = float(np.max(np.abs(_power_sums(section_eig, ks) - _power_sums(target_eig, ks))))
    return mismatch / len(target_eig) if np.isfinite(mismatch) else np.inf


def _solve_power_sums(
    rep: Representation,
    bip: Bipartition,
    adj: _AdjointSection,
    t0: np.ndarray,
    reg_targets: np.ndarray,
    ad_targets: np.ndarray,
    tol: float = 1e-12,
    restarts: int = 3,
) -> Tuple[np.ndarray, float]:
    """Gauss-Newton on joint power sums tr(C^k) of both representations.

    Power sums are smooth in the section parameters with no resonant
    conditioning collapse, so the solve reaches machine precision even when
    the target spectra are heavily degenerate (where coefficient or
    eigenvalue-matching systems floor out near sqrt(eps)).
    """
    kr = np.arange(1, min(len(reg_targets), 24) + 1)
    ka = np.arange(1, min(len(ad_targets), 28) + 1)
    pr = _power_sums(reg_targets, kr) / len(reg_targets)
    pa = _power_sums(ad_targets, ka) / len(ad_targets)

    def resid(t):
        er = np.linalg.eigvals(steinberg_section(rep, bip, t).full())
        ea = np.linalg.eigvals(adj.section(t))
        # a trial step far off the class can overflow the powers; the line
        # search rejects the non-finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            fr = _power_sums(er, kr) / len(er) - pr
            fa = _power_sums(ea, ka) / len(ea) - pa
        return np.concatenate([fr, fa])

    rng = np.random.default_rng(1)
    l = len(t0)
    t = np.array(t0, dtype=complex)
    best = None
    for attempt in range(restarts):
        for _ in range(60):
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
    return best[1], float(best[0])


def _eigen_rescue(
    rep: Representation,
    bip: Bipartition,
    adj: _AdjointSection,
    t_seed: np.ndarray,
    target_reg: np.ndarray,
    target_ad_eig: np.ndarray,
    iters: int = 80,
) -> np.ndarray:
    """Gauss-Newton on assignment-matched eigenvalues of both representations.

    Characteristic-polynomial coefficients cannot tell two classes apart when
    their registered spectra agree; the joint eigenvalue residual can, and at
    generic (simple-spectrum) targets it is far better conditioned than the
    coefficient system, so it pulls a wrong-fiber point onto the right one.
    """
    from scipy.optimize import linear_sum_assignment

    def resid(t):
        out = []
        for mat, tgt in (
            (steinberg_section(rep, bip, t).full(), target_reg),
            (adj.section(t), target_ad_eig),
        ):
            eig = np.linalg.eigvals(mat)
            cost = np.abs(eig[:, None] - tgt[None, :])
            ri, ci = linear_sum_assignment(cost)
            d = np.zeros(len(tgt), dtype=complex)
            d[ci] = eig[ri] - tgt[ci]
            out.append(d)
        return np.concatenate(out)

    t = np.array(t_seed, dtype=complex)
    l = len(t)
    for _ in range(iters):
        F = resid(t)
        r = float(np.max(np.abs(F)))
        if r < 1e-12:
            break
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
            if np.max(np.abs(resid(cand))) < r:
                t = cand
                break
            lam /= 2
        else:
            break
    return t


def _solve_class_with_continuation(
    rs: RootSystem,
    rep: Representation,
    bip: Bipartition,
    order: Tuple[int, ...],
    m: Tuple[Q, ...],
    tol: float = 1e-11,
) -> Tuple[np.ndarray, float, float]:
    """Section parameters for the class of e^{2 pi i (m+x0)/s}.

    Returns (t, registered residual, adjoint certificate).  The registered
    characteristic polynomial is the solved system (its character seed is the
    exact solution in type A).  The adjoint characteristic polynomial is
    never solved to tolerance - near resonances its multiple roots floor any
    float Newton around sqrt(eps) - but it certifies the conjugacy class:
    fiber components of the registered polynomial belonging to other classes
    sit at certificate values around 1, far above SELECT_TOL.  When the
    direct solve stalls or lands uncertified, the solution is tracked along
    tau*m from tau = 0 (admissible by convexity) with every step certified,
    so the branch cannot hop classes.
    """
    s = rs.coxeter_number
    adj = None if rs.type.family == "A" else _adjoint_section(str(rs.type), order)

    def certificate(t, target_ad) -> float:
        if adj is None:
            return 0.0
        return _power_sum_certificate(np.linalg.eigvals(adj.section(t)), target_ad)

    def data_at(mvec):
        """Character seed, registered target eigenvalues and polynomial, adjoint target."""
        y = tuple((mi + x0i) / s for mi, x0i in zip(mvec, rs.x0_coords))
        t0 = np.array([character_value_fast(rs, node, y) for node in order])
        reg_eig = _target_eigenvalues(rep, y)
        target_ad = None if adj is None else adj.target_eig(y)
        return t0, reg_eig, _charpoly(np.diag(reg_eig)), target_ad

    loose = max(tol, 1e-8)

    def track(path):
        """Certified continuation along path(0) = 0 .. path(1) = m.

        Every accepted step must both solve the registered polynomial (to the
        loose bound; resonant targets floor the residual near sqrt(eps)) and
        carry the adjoint certificate, so the tracked branch cannot hop
        classes; collisions force a bisection stall instead.
        """
        tau_done = Q(0)
        t0_done, _, target0, target_ad0 = data_at(path(Q(0)))
        t_sol, r0 = _solve_section_parameters(rep, bip, t0_done, target0, tol, restarts=4)
        if r0 > loose or certificate(t_sol, target_ad0) > _cert_tol(target_ad0):
            raise ConsistencyError(f"certified class solve failed at m = 0: {r0}")
        pending = [Q(1)]
        while pending:
            tau = pending[-1]
            if tau - tau_done < Q(1, 512):
                if adj is not None:
                    # stalled: jump to the endpoint with the eigenvalue system,
                    # seeded from the certified warm point
                    t0_end, reg_end, target_end, target_ad_end = data_at(path(Q(1)))
                    seed = t_sol + (t0_end - t0_done)
                    t_e = _eigen_rescue(rep, bip, adj, seed, reg_end, target_ad_end)
                    t_p, r_p = _solve_section_parameters(
                        rep, bip, t_e, target_end, tol, restarts=1
                    )
                    if r_p <= loose and certificate(t_p, target_ad_end) <= _cert_tol(target_ad_end):
                        return t_p
                raise ConsistencyError(
                    f"continuation stalled between tau = {tau_done} and {tau}"
                )
            t0_tau, _, target_tau, target_ad_tau = data_at(path(tau))
            seed = t_sol + (t0_tau - t0_done)
            t_try, r = _solve_section_parameters(
                rep, bip, seed, target_tau, loose, restarts=1
            )
            if r <= loose and certificate(t_try, target_ad_tau) <= _cert_tol(target_ad_tau):
                tau_done, t_sol, t0_done = tau, t_try, t0_tau
                pending.pop()
            else:
                pending.append((tau_done + tau) / 2)
        return t_sol

    t0, reg_eig, target, target_ad = data_at(m)
    if adj is not None:
        # primary path: the smooth joint power-sum system reaches machine
        # precision even at resonant targets; the coefficient residual and
        # the certificate are then measured at its solution
        t_ps, r_ps = _solve_power_sums(rep, bip, adj, t0, reg_eig, target_ad)
        t, r = _solve_section_parameters(rep, bip, t_ps, target, tol, restarts=1)
        cert = certificate(t, target_ad)
        if r_ps < 1e-10 and cert <= _cert_tol(target_ad):
            return t, float(r), float(cert)
    else:
        t, r = _solve_section_parameters(rep, bip, t0, target, tol, restarts=2)
        cert = certificate(t, target_ad)

    if (r > loose or cert > _cert_tol(target_ad) if adj is not None else r > loose) and adj is not None:
        # wrong fiber or failed solve: the joint eigenvalue system separates
        # the fibers and tolerates repeated targets
        t_e = _eigen_rescue(rep, bip, adj, t if r <= loose else t0, reg_eig, target_ad)
        t_p, r_p = _solve_section_parameters(rep, bip, t_e, target, tol, restarts=1)
        if r_p <= loose and certificate(t_p, target_ad) <= _cert_tol(target_ad):
            t, r, cert = t_p, r_p, certificate(t_p, target_ad)

    if r > loose or (adj is not None and cert > _cert_tol(target_ad)):
        paths = [lambda tau: tuple(c * tau for c in m)]
        # branch collisions along the straight path sit on thin sets; detours
        # through random admissible midpoints generically avoid them
        rng = np.random.default_rng(7)
        for _ in range(4):
            mid = _random_admissible_midpoint(rs, m, rng)

            def detour(tau, mid=mid):
                if tau <= Q(1, 2):
                    return tuple(c * 2 * tau for c in mid)
                lam = 2 * tau - 1
                return tuple(a + (b - a) * lam for a, b in zip(mid, m))

            paths.append(detour)
        last_exc = None
        for path in paths:
            try:
                t_sol = track(path)
                break
            except ConsistencyError as exc:
                last_exc = exc
        else:
            raise last_exc
        # best-effort polish at the final point
        t, r = _solve_section_parameters(rep, bip, t_sol, target, tol, restarts=1)
        cert = certificate(t, target_ad)

    if adj is not None and cert > _cert_tol(target_ad):
        # last resort: eigenvalue steering from wherever we ended up
        t_j = _eigen_rescue(rep, bip, adj, t, reg_eig, target_ad)
        t, r = _solve_section_parameters(rep, bip, t_j, target, tol, restarts=1)
        cert = certificate(t, target_ad)
    if adj is not None and cert > _cert_tol(target_ad):
        raise ConsistencyError(
            f"section parameters match the registered polynomial but fail the "
            f"adjoint class certificate: {cert}"
        )
    return t, float(r), float(cert)


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
    class_tol: float = 1e-8,
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
    tables = all_fundamental_tables(rs)
    m_frac = _as_fractions(m)
    t, class_res, adjoint_cert = _solve_class_with_continuation(rs, rep, bip, order, m_frac)
    if rs.type.family == "A":
        # chi(C(t)) = t exactly in type A: the character values must survive
        t0 = np.array([character_value(rs, tables[node - 1], y) for node in order])
        if np.max(np.abs(t - t0)) > 1e-6 * max(1.0, np.max(np.abs(t0))):
            raise ConsistencyError("type-A section parameters drifted from characters")
    if class_res > class_tol:
        raise ConsistencyError(
            f"no section parameters matching the torus class: residual {class_res}"
        )

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

    Rebuilds both unipotent factors from the cached adjoint cross-section
    factors and expands their logarithms over the ad-matrices of the
    supporting root vectors.
    """
    order = sd.gamma_order
    adj = _adjoint_section(sd.type_name, order)
    alg = adj.alg
    k = len(bipartition(alg.rs).i2)

    k1ad = np.eye(alg.dim, dtype=complex)
    nblock = np.eye(alg.dim, dtype=complex)
    for pos in range(k):
        k1ad = k1ad @ adj.exp_ad_e[order[pos]](sd.t[pos])
        nblock = nblock @ adj.n_ad[order[pos]]
    tail = np.eye(alg.dim, dtype=complex)
    for pos in range(k, len(order)):
        tail = tail @ adj.exp_ad_e[order[pos]](sd.t[pos])
    k2ad = nblock @ tail @ np.linalg.inv(nblock)

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
    got_poly = _charpoly(sd.m0)
    want_poly = _charpoly(np.diag(pred))
    poly_res = float(np.max(np.abs(got_poly - want_poly)))
    dists = np.abs(pred[:, None] - pred[None, :]) + np.eye(len(pred))
    regular = bool(np.min(dists) > 1e-8)
    eig_res = None
    if regular:
        from scipy.optimize import linear_sum_assignment

        got = np.linalg.eigvals(sd.m0)
        cost = np.abs(pred[:, None] - got[None, :])
        ri, ci = linear_sum_assignment(cost)
        eig_res = float(cost[ri, ci].max())
    ok = poly_res <= poly_tol and (eig_res is None or eig_res <= eig_tol)
    return SemisimpleSpectrumReport(regular, poly_res, eig_res, ok)
