"""Stokes data from asymptotics: alcove, torus characters, cross-section.

The canonical Stokes element is assembled as M0 = K1 K2 A_gamma where K1 is
unipotent on the Pi_2 root spaces, K2 on gamma(-Pi_1), and A_gamma is the
Coxeter representative produced by the cross-section's Weyl factors.  Its
conjugacy class is pinned to that of the torus element e^{2 pi i (m+x0)/s}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

from .assignment import linear_assignment
from .characters import WeightPairing, character_value, fundamental_characters
from .chevalley import build_chevalley
from .coxeter import Bipartition, bipartition, coxeter_element
from .rootcore import Root, RootSystem, build_root_system, diagram_involution
from .weightrep import (
    NilpotentExp,
    Representation,
    UnsupportedRepresentationError,
    registered_representation,
    weyl_representative,
)

FACTOR_TOL = 1e-8


class InadmissibleError(ValueError):
    """Asymptotic data violates alpha_i(m) >= -1 for some i in 0..l."""


class ConsistencyError(ArithmeticError):
    """A pipeline identity (factorization, class match) failed numerically."""


# -- alcove -------------------------------------------------------------------


@dataclass(frozen=True)
class AlcovePoint:
    m: Tuple[Q, ...]                 # m as fractions (floats to denominators <= 10^12)
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
    return AlcovePoint(m, y, slacks, slack_psi, alcove_ok, fixed)


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
    _full: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.e_parts[0].shape[0]

    def full(self) -> np.ndarray:
        """C = E_1 n_1 ... E_l n_l, multiplied out once."""
        if self._full is None:
            pairs = zip(self.e_parts, self.n_parts)
            self._full = _product([f for pair in pairs for f in pair], self.dim)
        return self._full

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
    rep: Representation | _AdjointSection, bip: Bipartition, t: Sequence[complex]
) -> CrossSectionFactors:
    """C^Gamma(t) = E_1(t_1) n_1 ... E_l(t_l) n_l in the given representation.

    rep is a Representation or the adjoint _AdjointSection; every
    cross-section, in every representation, is built here.

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

    def to_jsonable(self) -> Dict:
        def mat(a):
            return [
                [[round(float(z.real), 15), round(float(z.imag), 15)] for z in row]
                for row in np.asarray(a)
            ]

        return {
            "schema_version": 2,
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
        }


def _target_eigenvalues(rep: Representation | _AdjointSection, y) -> np.ndarray:
    return np.exp(2j * np.pi * rep.weight_values(y))


def _distinct(eig: np.ndarray) -> bool:
    """No two of eig within 1e-8 of each other (regular, not resonant, targets)."""
    return bool(np.min(np.abs(eig[:, None] - eig[None, :]) + np.eye(len(eig))) > 1e-8)


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
    """The adjoint representation as the cross-section, characters and supports use it.

    It has the section_factors(i), dim and weight_values of a Representation,
    so steinberg_section and _target_eigenvalues take it in place of one; its
    weights are the roots in rs.roots order, then l zeros.

    Its sections serve the support check.  Neither its section nor its torus
    targets enter the class solve: in B, C, D and G2 the adjoint power sums
    are a plethysm of the registered V's (_ADJOINT_PLETHYSM), and the closed
    form evaluates no section.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.alg = build_chevalley(str(rs.type))
        self.dim = len(rs.roots) + rs.rank
        zero = (0,) * rs.rank
        self.weight_values = WeightPairing(
            str(rs.type), [rs.to_dyn(r) for r in rs.roots] + [zero] * rs.rank
        )
        self._section_factors: Dict[int, Tuple[NilpotentExp, np.ndarray]] = {}
        self._support_bases: Dict[Tuple[Root, ...], np.ndarray] = {}

    def section_factors(self, i: int) -> Tuple[NilpotentExp, np.ndarray]:
        """(t -> exp(t ad e_i), n_i), built once per node (0-based i).

        ad e_i = ad e_{alpha_i} / L_i and ad f_i = ad e_{-alpha_i}.
        """
        got = self._section_factors.get(i)
        if got is None:
            alg = self.alg
            a = self.rs.simple_roots[i]
            exp_e = NilpotentExp(alg.ad({a: 1}) / (float(self.rs.inner(a, a)) / 2))
            exp_f = NilpotentExp(alg.ad({tuple(-c for c in a): 1}))
            got = (exp_e, weyl_representative(exp_e, exp_f))
            self._section_factors[i] = got
        return got

    def support_basis(self, support: Tuple[Root, ...]) -> np.ndarray:
        """The flattened ad-matrices of the root vectors in support, as columns, built once."""
        got = self._support_bases.get(support)
        if got is None:
            alg = self.alg
            got = np.stack([alg.ad({r: 1}).reshape(-1) for r in support], axis=1)
            got.flags.writeable = False
            self._support_bases[support] = got
        return got


@lru_cache(maxsize=None)
def _adjoint_section(type_name: str) -> _AdjointSection:
    """The adjoint cross-section factors, built once per type."""
    return _AdjointSection(build_root_system(type_name))


# -- the class solve in closed form ------------------------------------------------

# node -> integer polynomial in Bourbaki-labelled variables, as monomial ->
# coefficient, a monomial the sorted tuple of the nodes it multiplies
CharacterMap = Dict[int, Dict[Tuple[int, ...], int]]

# (chi(C(t)), t(chi)) of the exceptional types (Steinberg, Publ. IHES 25, 1965,
# section 7); tier-1 derives them exactly
_EXCEPTIONAL_MAPS: Dict[str, Tuple[CharacterMap, CharacterMap]] = {
    "G2": ({1: {(1,): 1, (): -1}, 2: {(2,): 1, (1,): -2, (): 1}},
           {1: {(1,): 1, (): 1}, 2: {(2,): 1, (1,): 2, (): 1}}),
    "F4": ({1: {(1,): 1, (4,): -1}, 2: {(2,): 1, (3,): -1, (4,): 2, (1, 4): -1, (): -1},
            3: {(3,): 1, (1,): -1, (4,): -1, (): 1}, 4: {(4,): 1, (): -1}},
           {1: {(1,): 1, (4,): 1, (): 1},
            2: {(2,): 1, (1,): 2, (3,): 1, (4,): 2, (1, 4): 1, (4, 4): 1, (): 1},
            3: {(3,): 1, (1,): 1, (4,): 2, (): 1}, 4: {(4,): 1, (): 1}}),
    "E6": ({1: {(1,): 1}, 2: {(2,): 1, (): -1}, 3: {(3,): 1, (6,): -1},
            4: {(4,): 1, (2,): -1, (1, 6): -1, (): 1}, 5: {(5,): 1, (1,): -1}, 6: {(6,): 1}},
           {1: {(1,): 1}, 2: {(2,): 1, (): 1}, 3: {(3,): 1, (6,): 1},
            4: {(4,): 1, (2,): 1, (1, 6): 1}, 5: {(5,): 1, (1,): 1}, 6: {(6,): 1}}),
}


def character_map(type_name: str) -> Tuple[CharacterMap, CharacterMap]:
    """(chi(C(t)), t(chi)): the fundamental characters on the cross-section and their inverse.

    By Steinberg's theorem the chi_i(C(t)) are coordinates on the
    cross-section: chi_i = t_i + (integer polynomial in the t_j with ht
    omega_j < ht omega_i), so the inverse is an integer polynomial too,
    affine in A-D and G2, of degree 2 in F4 and E6.  G2, F4 and E6 are
    tables.  A-D follow one rule at every rank: along the chain of nodes
    k <= top (none in A, l - 1 in B, l in C, l - 2 in D), chi_k = t_k -
    t_{k-step} - [k = step], step 1 in B and 2 in C and D, so t_k = chi_k +
    chi_{k-step} + ... + [step in that chain]; elsewhere chi_k = t_k.  The
    tables are shared: callers read them only.  Raises
    UnsupportedRepresentationError for E7 and E8.
    """
    rs = build_root_system(type_name)
    family, l = rs.type.family, rs.rank
    if str(rs.type) in _EXCEPTIONAL_MAPS:
        return _EXCEPTIONAL_MAPS[str(rs.type)]
    if family not in "ABCD":
        raise UnsupportedRepresentationError(f"no closed-form class solve for {type_name}")
    step, top = (1, l - 1) if family == "B" else (2, {"A": 0, "C": l, "D": l - 2}[family])
    chi_of_t: CharacterMap = {}
    t_of_chi: CharacterMap = {}
    for k in range(1, l + 1):
        chain = tuple(range(k, 0, -step)) if k <= top else (k,)
        chi_of_t[k] = {(k,): 1, **{(j,): -1 for j in chain[1:2]}}
        t_of_chi[k] = {(j,): 1 for j in chain}
        if k <= top and step in chain:
            t_of_chi[k][()] = 1
            if k == step:
                chi_of_t[k][()] = -1
    return chi_of_t, t_of_chi


def _evaluate(polys: CharacterMap, x: Dict[int, complex]) -> Dict[int, complex]:
    """Each node's polynomial at x (node -> value), with complex arithmetic."""
    return {
        node: sum(c * math.prod((x[j] for j in mono), start=1 + 0j) for mono, c in terms.items())
        for node, terms in polys.items()
    }


# Registered residual the power-sum route's and the type-A answer must reach
# (resonant targets floor the coefficient residual near sqrt(eps)), the
# polish's target, and the relative character residual the closed form must reach.
CLASS_TOL = 1e-8
SOLVE_TOL = 1e-11
CHAR_TOL = 1e-10


# p_k(ad) from p_k and p_2k of the registered V, p_j = tr_V(g^j), for every
# group element g: the adjoint is Lambda^2 V in B_n and D_n, S^2 V in C_n and
# Lambda^2 V_7 - V_7 in G2.  In F4 and E6 it is no plethysm of the 26/27.
_ADJOINT_PLETHYSM = {
    "B": lambda p, p2: (p * p - p2) / 2,
    "C": lambda p, p2: (p * p + p2) / 2,
    "D": lambda p, p2: (p * p - p2) / 2,
    "G": lambda p, p2: (p * p - p2) / 2 - p,
}


def _power_sums(eig: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """p_k = sum_j eig_j^k for each k in ks."""
    return (eig[None, :] ** ks[:, None]).sum(axis=1)


def _solve_power_sums(
    rep: Representation, bip: Bipartition, t0, reg_eig
) -> Tuple[np.ndarray, float]:
    """Gauss-Newton on the power sums tr(C^k) of the registered and adjoint sections, from t0.

    Power sums are smooth in the section parameters with no resonant
    conditioning collapse.  The adjoint power sums, of the section and of the
    targets alike, follow from the registered eigenvalues by the family's
    plethysm (_ADJOINT_PLETHYSM), so only the registered section is
    diagonalized; those adjoint equations repeat registered information and
    pin no more than the registered power sums do.
    """
    rs = rep.rs
    plethysm = _ADJOINT_PLETHYSM[rs.type.family]
    dim_ad = len(rs.roots) + rs.rank
    kr = np.arange(1, min(rep.dim, 24) + 1)
    ka = np.arange(1, min(dim_ad, 28) + 1)

    def sums(eig):
        # a trial step far off the class can overflow the powers; the line
        # search rejects the non-finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            pa = plethysm(_power_sums(eig, ka), _power_sums(eig, 2 * ka))
            return np.concatenate([_power_sums(eig, kr) / rep.dim, pa / dim_ad])

    target = sums(reg_eig)

    def resid(t):
        return sums(np.linalg.eigvals(steinberg_section(rep, bip, t).full())) - target

    return _gauss_newton(resid, t0, 1e-12, 60, 3, seed=1)


def _closed_form(type_name: str, order: Tuple[int, ...], chi: np.ndarray) -> np.ndarray:
    """t with chi(C(t)) = chi, both in Gamma order, read off t(chi) (character_map).

    No section is evaluated.  Returns t, after checking the relative character
    residual max |chi_i(C(t)) - chi_i| / max(1, |chi_i|), with chi(C(t)) from
    the forward polynomial; above CHAR_TOL ConsistencyError names it, the bound
    and the worst node.
    """
    chi_of_t, t_of_chi = character_map(type_name)
    x = dict(zip(order, chi))
    t = _evaluate(t_of_chi, x)
    back = _evaluate(chi_of_t, t)
    res = {node: abs(back[node] - x[node]) / max(1.0, abs(x[node])) for node in order}
    node = max(order, key=res.get)
    if not res[node] <= CHAR_TOL:
        raise ConsistencyError(
            f"closed form: character residual {res[node]:.3g} (bound {CHAR_TOL:g}) at node {node}"
        )
    return np.array([t[node] for node in order])


def _solve_class(
    rs: RootSystem, bip: Bipartition, order: Tuple[int, ...], y
) -> Tuple[np.ndarray, float, CrossSectionFactors]:
    """Section parameters for the class of e^{2 pi i y}, y = (m+x0)/s.

    Returns t, the residual r of the registered characteristic polynomial at
    t, and the registered cross-section at t, whose product is M0 when M0 is
    assembled in the registered representation.  The class is solved in the
    registered representation, whichever representation M0 is then
    assembled in.

    - Type A: chi(C(t)) = t, so t = chi(y) (in Gamma order), accepted when
      r <= CLASS_TOL.
    - B, C, D and G2 (the families of _ADJOINT_PLETHYSM) with distinct
      registered targets: power sums, then polish.  Gauss-Newton on the
      power sums of the registered section and their adjoint plethysm from
      chi(y), then Newton on the registered characteristic polynomial from
      there; accepted when r <= CLASS_TOL, else the closed form.
    - Colliding registered targets (every alcove vertex, and resonant
      interior points), F4 and E6: the closed form only.  Where targets
      collide, r <= CLASS_TOL pins t only to about sqrt(r) (route 1 ends up
      to 4.5e-6 off at B2-B4, D4 and D5 vertices); in F4 and E6 the
      registered polynomial alone does not separate regular classes.

    The closed form (_closed_form) reads t off chi(y) through the inverse of
    the fundamental characters on the cross-section (character_map), which
    are coordinates there (Steinberg 1965, sections 7-8), so it pins the
    regular class; it is accepted at CHAR_TOL, and r at its t is reported,
    not enforced.  A failure names the character residual, its bound and
    node, and the power-sum route's r and bound.
    """
    rep = registered_representation(str(rs.type))
    t0 = torus_character_values(rs, [fundamental_characters(str(rs.type), k) for k in order], y)
    reg_eig = _target_eigenvalues(rep, y)
    poly = np.poly(np.diag(reg_eig))
    last = [None, None]  # the t last evaluated and its registered section

    def registered_residual(t) -> np.ndarray:
        last[:] = t, steinberg_section(rep, bip, t)
        return np.poly(last[1].full()) - poly

    def solved(t, r) -> Tuple[np.ndarray, float, CrossSectionFactors]:
        return t, float(r), last[1] if last[0] is t else steinberg_section(rep, bip, t)

    if rs.type.family == "A":
        r = float(np.max(np.abs(registered_residual(t0))))
        if not r <= CLASS_TOL:
            raise ConsistencyError(
                f"type-A class: registered residual {r:.3g} (bound {CLASS_TOL:g}) at t = chi(y)"
            )
        return solved(t0, r)
    route1 = ""
    if rs.type.family in _ADJOINT_PLETHYSM and _distinct(reg_eig):
        t_ps, _ = _solve_power_sums(rep, bip, t0, reg_eig)
        t, r = _gauss_newton(registered_residual, t_ps, SOLVE_TOL, 60, 1, seed=0)
        if r <= CLASS_TOL:
            return solved(t, r)
        route1 = f"; power-sum route: registered residual {r:.3g} (bound {CLASS_TOL:g})"
    try:
        t = _closed_form(str(rs.type), order, t0)
    except ConsistencyError as exc:
        raise ConsistencyError(f"class solve failed, {exc}{route1}") from None
    return solved(t, np.max(np.abs(registered_residual(t))))


def stokes_from_asymptotics(
    type_name: str,
    m: Sequence | AlcovePoint,
    rep: Representation | None = None,
) -> StokesData:
    """Assemble the canonical Stokes element from asymptotic data m.

    m is given in H_{alpha_i} coordinates and must satisfy alpha_i(m) >= -1
    for i = 0..l; it may also be given as its AlcovePoint (alcove_map(rs,
    m)), which is then not computed again.  The parameters t come from the
    fundamental characters at y = (m+x0)/s (paired with the weight dual to
    each Gamma entry), corrected by the class solve (_solve_class) so that M0
    lies in the conjugacy class of e^{2 pi i y}.  rep (default: the
    registered representation) is the one M0, K1 and K2 are assembled in; it
    does not change t.
    """
    rs = build_root_system(type_name)
    registered = registered_representation(str(rs.type))
    if rep is None:
        rep = registered
    pt = m if isinstance(m, AlcovePoint) else alcove_map(rs, m)
    if not pt.admissible:
        raise InadmissibleError(
            f"m inadmissible: simple slacks {pt.slacks_simple}, psi slack {pt.slack_psi}"
        )
    y = pt.y
    bip = bipartition(rs)
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    t, class_res, cs = _solve_class(rs, bip, order, y)
    if rep is not registered:
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
        m=pt.m,
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
    )


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


def verify_factor_supports(sd: StokesData) -> Dict[str, float]:
    """log K1 / log K2 lie in the claimed root spaces, checked in ad(g).

    Rewrites the adjoint cross-section at sd.t as (K1, K2, A_gamma), as for
    M0, and expands their logarithms over the cached ad-matrices of the
    supporting root vectors.
    """
    adj = _adjoint_section(sd.type_name)
    k1ad, k2ad, _ = steinberg_section(adj, bipartition(adj.rs), sd.t).rewritten()

    out = {}
    for name, mat, support in (
        ("k1", k1ad, sd.k1_support),
        ("k2", k2ad, sd.k2_support),
    ):
        x = _unipotent_log(mat)
        A = adj.support_basis(support)
        coef, *_ = np.linalg.lstsq(A, x.reshape(-1), rcond=None)
        res = float(np.max(np.abs(A @ coef - x.reshape(-1))))
        if res > FACTOR_TOL * max(1.0, float(np.max(np.abs(x)))):
            raise ConsistencyError(f"log {name} leaves its root-space span: {res}")
        out[name] = res
    return out


# -- spectrum check --------------------------------------------------------------

EIG_TOL = 1e-7      # pointwise eigenvalue bound at distinct targets
POLY_TOL = 1e-7     # characteristic-polynomial coefficient bound


@dataclass
class SemisimpleSpectrumReport:
    regular: bool
    charpoly_residual: float
    eigenvalue_residual: float | None
    ok: bool


def semisimple_spectrum_check(
    sd: StokesData,
    rep: Representation | None = None,
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
    regular = _distinct(pred)
    eig_res = None
    if regular:
        got = np.linalg.eigvals(sd.m0)
        cost = np.abs(pred[:, None] - got[None, :])
        ri, ci = linear_assignment(cost)
        eig_res = float(cost[ri, ci].max())
    ok = poly_res <= POLY_TOL and (eig_res is None or eig_res <= EIG_TOL)
    return SemisimpleSpectrumReport(regular, poly_res, eig_res, ok)
