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
from itertools import accumulate
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from .assignment import linear_assignment
from .characters import character_value, fundamental_characters, fundamental_dim
from .coxeter import Bipartition, bipartition, coxeter_element
from .rootcore import Root, RootSystem, build_root_system, diagram_involution
from .scalars import integers
from .weightrep import (
    Representation,
    UnsupportedRepresentationError,
    registered_representation,
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


def _dot(row: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, v))


def admissible_m(rs: RootSystem, m: Sequence) -> bool:
    """alpha_i(m) >= -1 for i = 0..l, with alpha_0 = -psi.

    Exact, in integers: with m = num/den and alpha(h) = (row . h)/F over
    rs.affine_rows, alpha(m) >= -1 reads row . num >= -F den.
    """
    rows, F = rs.affine_rows
    num, den = integers([c if isinstance(c, Q) else Q(c) for c in m])
    if any(_dot(row, num) < -F * den for row in rows[:-1]):
        return False
    return _dot(rows[-1], num) <= F * den


def alcove_map(rs: RootSystem, m: Sequence) -> AlcovePoint:
    """y = (m + x0)/s with the alcove inequality slacks.

    The admissibility verdict is computed both from alpha_i(m) >= -1 and from
    the alcove inequalities at y; the two must agree (that equivalence is the
    content of the proposition, so it is asserted here).  y and the slacks
    are the exact Fractions, formed from integer numerators over one
    denominator (rs.affine_rows).
    """
    s = rs.coxeter_number
    m = tuple(Q(c) if isinstance(c, int) else c for c in m)
    exact = all(isinstance(c, Q) for c in m)
    if not exact:
        m = tuple(Q(float(c)).limit_denominator(10**12) for c in m)
    l = rs.rank
    if len(m) != l:
        raise ValueError(f"m must have {l} components, not {len(m)}")
    # y = num / (s den)
    num, den = integers(m + rs.x0_coords)
    num = [a + b for a, b in zip(num[:l], num[l:])]
    rows, F = rs.affine_rows
    y_den = s * den
    y = tuple(Q(c, y_den) for c in num)
    slack_den = F * y_den
    simple = [_dot(row, num) for row in rows[:-1]]
    psi_slack = slack_den - _dot(rows[-1], num)
    slacks = tuple(Q(c, slack_den) for c in simple)
    alcove_ok = all(c >= 0 for c in simple) and psi_slack >= 0
    if alcove_ok != admissible_m(rs, m):
        raise ConsistencyError("alcove inequalities disagree with admissibility")
    nu = diagram_involution(rs)
    fixed = all(num[i] == num[nu[i] - 1] for i in range(l))
    return AlcovePoint(m, y, slacks, Q(psi_slack, slack_den), alcove_ok, fixed)


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
        """C = E_1 n_1 ... E_l n_l, multiplied out once (read-only: a Spectrum may hold it)."""
        if self._full is None:
            pairs = zip(self.e_parts, self.n_parts)
            self._full = _product([f for pair in pairs for f in pair], self.dim)
            self._full.flags.writeable = False
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
    rep: Representation, bip: Bipartition, t: Sequence[complex]
) -> CrossSectionFactors:
    """C^Gamma(t) = E_1(t_1) n_1 ... E_l(t_l) n_l in the given representation.

    rep needs only section_factors(i) and dim, so the tests pass their
    adjoint stand-in (tests/character_reference.py) as well; every
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


def _section_stack(
    rep: Representation, bip: Bipartition, ts: np.ndarray
) -> np.ndarray:
    """The sections C(t) at a (k, l) stack of t, as a (k, dim, dim) stack.

    Each matrix is bitwise steinberg_section(rep, bip, t).full() at its row:
    the product takes the same factors in the same order, each E_i(t) for
    the whole stack at once.  The factors are multiplied in as they are
    built, not kept.
    """
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    out = np.eye(rep.dim, dtype=complex)
    for pos, node in enumerate(order):
        exp_e, n_i = rep.section_factors(node - 1)
        out = out @ exp_e(ts[:, pos]) @ n_i
    return out


# -- Stokes data ----------------------------------------------------------------


class Spectrum(NamedTuple):
    """M0's eigenvalues and charpoly and their targets in one representation, formed once per op.

    targets are e^{2 pi i mu(y)} over the representation's weights,
    target_poly is np.poly(np.diag(targets)) and regular says that no two
    targets collide (_distinct); eigenvalues are np.linalg.eigvals(m0) and
    charpoly np.poly(eigenvalues), which is bitwise np.poly(m0).  y and m0
    are what they were formed from: semisimple_spectrum_check reuses them
    only for an equal y and that m0 array.
    """

    y: Tuple
    m0: np.ndarray
    targets: np.ndarray
    target_poly: np.ndarray
    regular: bool
    eigenvalues: np.ndarray
    charpoly: np.ndarray


def _targets(rep: Representation, y) -> Tuple[np.ndarray, np.ndarray, bool]:
    """The targets at y in rep, their charpoly and whether they are distinct (see Spectrum)."""
    targets = _target_eigenvalues(rep, y)
    return targets, np.poly(np.diag(targets)), _distinct(targets)


def _spectrum(rep: Representation, y, m0: np.ndarray, targets=None) -> Spectrum:
    """The Spectrum of m0 in rep at y; the _targets triple is formed here unless given."""
    if targets is None:
        targets = _targets(rep, y)
    eig = np.linalg.eigvals(m0)
    return Spectrum(y, m0, *targets, eig, np.poly(eig))


@dataclass
class StokesData:
    """The Stokes data of one point, with the representation M0 is assembled in.

    rep is that representation: M0, K1 and K2 are its matrices, rep_name and
    p0 are read from it, and the support and spectrum checks take it from
    here.  spectrum carries M0's eigenvalues and charpoly and the targets at
    y in rep, formed once: in the registered representation they are the
    class solve's; under another rep they are formed for its M0.
    dataclasses.replace keeps both, and semisimple_spectrum_check recomputes
    whenever y or the m0 array differ from the spectrum's.
    """

    type_name: str
    rep: Representation = field(repr=False, compare=False)
    m: Tuple[Q, ...]
    y: Tuple[Q, ...]
    t: Tuple[complex, ...]
    gamma_order: Tuple[int, ...]
    m0: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    a_gamma: np.ndarray            # Coxeter representative used as torus anchor
    k1_support: Tuple[Root, ...]
    k2_support: Tuple[Root, ...]
    factorization_residual: float
    class_residual: float
    character_residual: float      # relative, of the fundamental characters at t
    # M0's spectrum and its targets, not serialized (see Spectrum)
    spectrum: Spectrum | None = field(default=None, repr=False, compare=False)

    @property
    def rep_name(self) -> str:
        return self.rep.name

    @property
    def p0(self) -> np.ndarray:
        """The principal element exp(2 pi i x0 / s) in rep (read-only)."""
        return self.rep.p0_matrix()

    def to_jsonable(self, matrices: bool = False) -> Dict:
        """The stokes document's fields; the dense m0, k1, k2, a_gamma and p0 only with matrices."""
        doc = {
            "schema_version": 3,
            "type": self.type_name,
            "rep": self.rep_name,
            "m": [str(c) for c in self.m],
            "y": [str(c) for c in self.y],
            "t": [[z.real, z.imag] for z in self.t],
            "gamma_order": list(self.gamma_order),
            "k1_support": [list(r) for r in self.k1_support],
            "k2_support": [list(r) for r in self.k2_support],
            "factorization_residual": self.factorization_residual,
            "class_residual": self.class_residual,
            "character_residual": self.character_residual,
        }
        if matrices:
            for key in ("m0", "k1", "k2", "a_gamma", "p0"):
                a = getattr(self, key)
                doc[key] = [
                    [[round(x, 15), round(y, 15)] for x, y in zip(re_row, im_row)]
                    for re_row, im_row in zip(a.real.tolist(), a.imag.tolist())
                ]
        return doc


def _target_eigenvalues(rep: Representation, y) -> np.ndarray:
    """e^{2 pi i mu(y)} over the weights mu of rep.

    rep needs only weight_values, so the tests pass their adjoint stand-in
    (tests/character_reference.py) as well.
    """
    return np.exp(2j * np.pi * rep.weight_values(y))


def _distinct(eig: np.ndarray) -> bool:
    """No two of eig within 1e-8 of each other (regular, not resonant, targets)."""
    return bool(np.min(np.abs(eig[:, None] - eig[None, :]) + np.eye(len(eig))) > 1e-8)


# A line search tries the step lengths 2^-i, i = 0..29, in order, in chunks:
# an attempt's first chunk ends at the index it last accepted (0 on its first
# search), since most searches accept where the one before did; the chunks
# after it have these lengths, which must reach i = 29 from i = 1, and the
# last is cut there.  Chosen from the accepted indices over a seeded census
# of interior points (CHANGES).
_TRIAL_CHUNKS = (7, 22)


def _max_abs(rows) -> np.ndarray:
    """max |F| of each residual row; rows is a (k, m) array or a list of k rows."""
    if isinstance(rows, np.ndarray):
        return np.max(np.abs(rows), axis=-1)
    return np.array([np.max(np.abs(f)) for f in rows])


# The restart offsets of _gauss_newton: the first 44 standard normals of
# np.random.default_rng(1), as exact float literals, so that no process imports
# numpy.random.  44 = 4 l for three attempts at l <= 11, the largest B/C/D rank
# the character cap admits (B10, C11, D11); G2 has l = 2.  Tier-1 checks both.
_RESTART_NORMALS = (
    0.345584192064786, 0.8216181435011584, 0.33043707618338714, -1.303157231604361,
    0.9053558666731177, 0.4463745723640113, -0.5369532353602852, 0.5811181041963531,
    0.36457239618607573, 0.294132496655526, 0.02842224131579679, 0.5467129866124469,
    -0.7364540870016669, -0.16290994799305278, -0.48211931267997826, 0.5988462126346276,
    0.03972210748165899, -0.2924567509650886, -0.7819084623568421, -0.2571922406188707,
    0.008142180518343508, -0.2756029052993704, 1.2940638143982073, 1.0067243153057943,
    -2.7111624789659685, -1.8890132459676727, -0.17477209205516195, -0.42219041157635356,
    0.2136429974986111, 0.21732193102256359, 2.1178387550510482, -1.1120207626922813,
    -0.37760500712699807, 2.0427716074923303, 0.6467029962018469, 0.6630633723762617,
    -0.5140063716874629, -1.6480751708556527, 0.16746474422274113, 0.10901408782154753,
    -1.2273520542445742, -0.6832266617805622, -0.07204367972722743, -0.9447516230607774,
)


class RestartTableError(ValueError):
    """A Gauss-Newton start needs more normals than _RESTART_NORMALS holds."""


def _restart_starts(t0, restarts: int) -> list:
    """t0, then t0 + 0.3 k (N + iN') for k = 1 .. restarts - 1.

    Attempt k + 1 reads N and N' from _RESTART_NORMALS where default_rng(1)
    drew them: the l normals from 2 l (k - 1), then the next l.
    """
    l = len(t0)
    need = 2 * l * (restarts - 1)
    if need > len(_RESTART_NORMALS):
        raise RestartTableError(
            f"{restarts} starts at l = {l} need {need} normals;"
            f" _RESTART_NORMALS holds {len(_RESTART_NORMALS)}"
        )
    normals = np.array(_RESTART_NORMALS[:need]).reshape(-1, 2, l)
    t = np.array(t0, dtype=complex)
    return [t] + [t + 0.3 * k * (re + 1j * im) for k, (re, im) in enumerate(normals, 1)]


def _gauss_newton(resid, t0, tol: float, iters: int, restarts: int) -> Tuple[np.ndarray, float]:
    """Damped Gauss-Newton on r(t) = max |resid(t)|, restarted around t0.

    resid maps a (k, l) stack of t to their k residual rows: a (k, m) array,
    or a list of k rows where rows differ in dtype (np.poly returns a real
    row when the roots are closed under conjugation, and the Jacobian
    differences of real rows are taken in real arithmetic).

    A step solves the forward-difference Jacobian (h = 1e-7 max(1, |t|_inf))
    by least squares, then tries the step lengths 2^-i, i = 0..29, in order
    until the trial residual is finite and below r; an attempt ends when none
    is, or after `iters` steps.  Attempt k + 1 starts from
    t0 + 0.3 k (N + iN'), N and N' fixed standard normals read from
    _RESTART_NORMALS (_restart_starts), so the starts are fixed data for
    each t0.  Returns the first iterate with r < tol of the
    first attempt that has one, else the first iterate of least r in
    attempt order; with its r.

    The attempts run in lockstep, and every resid call is a stack: all
    starts; the l Jacobian columns of every live attempt; the trials of
    every attempt still searching, one chunk of each.  An attempt's first
    chunk runs from 2^0 to the step length it last accepted (2^0 alone on
    its first search), then come chunks of _TRIAL_CHUNKS lengths, the last
    cut at 2^-29.  An accepted trial's row is the next iterate's residual.
    Each row of a stack is bitwise the residual of its t alone, and a search
    accepts the first finite r below the attempt's in step-length order, so
    neither the chunks nor the stacking change the result: it is bitwise
    that of running the attempts one after another with one t per call.  An
    attempt that stops (at tol, or when its least-squares solve raises
    LinAlgError) drops the attempts after it, which that order would never
    run, while the earlier ones run on; the error is raised only if no
    earlier attempt reaches tol.
    """
    l = len(t0)
    t = _restart_starts(t0, restarts)
    F = list(resid(np.stack(t)))
    r = [0.0] * restarts
    last = [0] * restarts           # the step-length index each attempt last accepted
    seen = [[] for _ in t]          # (r, t) at each iterate, per attempt
    stop = [None] * restarts        # (t, r) at tol, or the LinAlgError raised
    live = list(range(restarts))    # attempts still stepping, in order
    lams = 0.5 ** np.arange(30)
    diag = np.arange(l)
    for _ in range(iters):
        for i, a in enumerate(live):
            r[a] = float(np.max(np.abs(F[a])))
            seen[a].append((r[a], t[a]))
            if r[a] < tol:
                stop[a], live = (t[a], r[a]), live[:i]
                break
        if not live:
            break
        h = [1e-7 * max(1.0, float(np.max(np.abs(t[a])))) for a in live]
        cols = np.repeat(np.stack([t[a] for a in live]), l, axis=0)
        cols.reshape(len(live), l, l)[:, diag, diag] += np.array(h)[:, None]
        G = resid(cols)
        searching = []
        for i, (a, ha) in enumerate(zip(live, h)):
            J = np.empty((len(F[a]), l), dtype=complex)
            for j in range(l):
                J[:, j] = (G[i * l + j] - F[a]) / ha
            try:
                step, *_ = np.linalg.lstsq(J, -F[a], rcond=None)
            except np.linalg.LinAlgError as exc:
                stop[a], live = exc, live[:i]
                break
            ends = [min(e, 30) for e in accumulate((0, last[a] + 1, *_TRIAL_CHUNKS))]
            searching.append((a, step, ends))
        chunk = 0
        while searching:
            spans = [(a, step, ends, *ends[chunk : chunk + 2]) for a, step, ends in searching]
            cands = np.concatenate([t[a] + lams[lo:hi, None] * step for a, step, _, lo, hi in spans])
            rows = resid(cands)
            r_cand = _max_abs(rows)
            unmet = []
            k = 0
            for a, step, ends, lo, hi in spans:
                r_a = r_cand[k : k + hi - lo]
                hit = np.flatnonzero(np.isfinite(r_a) & (r_a < r[a]))
                if hit.size:
                    last[a] = lo + int(hit[0])
                    # a copy: seen keeps every iterate, not the stacks they came from
                    t[a], F[a] = cands[k + hit[0]].copy(), rows[k + hit[0]]
                elif hi < 30:
                    unmet.append((a, step, ends))
                else:
                    live.remove(a)
                k += hi - lo
            searching = unmet
            chunk += 1
        if not live:
            break
    for a in range(restarts):
        if isinstance(stop[a], np.linalg.LinAlgError):
            raise stop[a]
        if stop[a] is not None:
            return stop[a]
    best = None
    for history in seen:
        for ra, ta in history:
            if best is None or ra < best[0]:
                best = (ra, ta)
    return best[1], best[0]


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


# rows of a residual stack whose power sums are taken in one call
_SUM_ROWS = 8


def _power_sums(eig: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """p_k = sum_j eig_j^k for each k in ks, over the last axis of eig."""
    return (eig[..., None, :] ** ks[:, None]).sum(axis=-1)


def _section_spectra(
    rep: Representation, bip: Bipartition, ts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the sections at a (k, l) stack of t, and which rows have them.

    Returns a (k, dim) array and a (k,) mask; each row is bitwise
    np.linalg.eigvals of its section alone.  A row whose section is not
    finite (a trial far off the class overflows) has none, since it would
    make eigvals raise for the whole stack; callers give it an infinite
    residual, which the line search rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _section_stack(rep, bip, ts)
    ok = np.isfinite(mats).all(axis=(1, 2))
    if ok.all():
        return np.linalg.eigvals(mats), ok
    eig = np.full(mats.shape[:2], np.nan, dtype=complex)
    eig[ok] = np.linalg.eigvals(mats[ok])
    return eig, ok


def _power_sum_residual(rep: Representation, bip: Bipartition, reg_eig: np.ndarray):
    """The stacked residual of _solve_power_sums: (k, l) stack of t -> (k, m) rows.

    Row: the power sums tr(C^k)/dim of the registered section, k = 1..kr,
    kr = min(dim, 24), then the adjoint ones p_k(ad)/dim(ad), k = 1..ka,
    ka = min(dim(ad), 28), from the registered eigenvalues by the family's
    plethysm, minus the same sums of the targets reg_eig.  Every sum is read
    from one table of the p_k it needs, k = 1..ka and 2, 4, .., 2 ka
    (kr <= ka, since dim < dim(ad)), taken _SUM_ROWS rows at a time.  A row
    without eigenvalues (_section_spectra) is inf.
    """
    rs = rep.rs
    plethysm = _ADJOINT_PLETHYSM[rs.type.family]
    dim_ad = len(rs.roots) + rs.rank
    kr = min(rep.dim, 24)
    ka = min(dim_ad, 28)
    ks = np.concatenate([np.arange(1, ka + 1), np.arange(ka // 2 * 2 + 2, 2 * ka + 1, 2)])
    doubled = np.searchsorted(ks, 2 * np.arange(1, ka + 1))

    def sums(eig):
        # a trial step far off the class can overflow the powers; the line
        # search rejects the non-finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            p = _power_sums(eig, ks)
            pa = plethysm(p[..., :ka], p[..., doubled])
            return np.concatenate([p[..., :kr] / rep.dim, pa / dim_ad], axis=-1)

    target = sums(reg_eig)

    def resid(ts):
        eig, ok = _section_spectra(rep, bip, ts)
        # a few rows at a time: the (rows, k, dim) power table and numpy's
        # buffers for it stay a few tens of kB
        out = np.concatenate([sums(eig[i : i + _SUM_ROWS]) for i in range(0, len(eig), _SUM_ROWS)])
        out -= target
        if not ok.all():
            out[~ok] = np.inf
        return out

    return resid


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
    return _gauss_newton(_power_sum_residual(rep, bip, reg_eig), t0, 1e-12, 60, 3)


def _character_residuals(
    type_name: str, order: Tuple[int, ...], t: Sequence[complex], chi: Sequence[complex]
) -> Dict[int, float]:
    """Per node, |chi_i(C(t)) - chi_i| / max(1, |chi_i|), t and chi in Gamma order.

    chi(C(t)) comes from the forward polynomial of character_map, in Python
    complex arithmetic.
    """
    chi_of_t, _ = character_map(type_name)
    back = _evaluate(chi_of_t, {node: complex(c) for node, c in zip(order, t)})
    return {node: abs(back[node] - c) / max(1.0, abs(c)) for node, c in zip(order, chi)}


def _closed_form(type_name: str, order: Tuple[int, ...], chi: np.ndarray) -> np.ndarray:
    """t with chi(C(t)) = chi, both in Gamma order, read off t(chi) (character_map).

    No section is evaluated, and nothing is checked: _solve_class checks the
    relative character residual max |chi_i(C(t)) - chi_i| / max(1, |chi_i|)
    of the returned t (_character_residuals) against CHAR_TOL.
    """
    _, t_of_chi = character_map(type_name)
    t = _evaluate(t_of_chi, dict(zip(order, chi)))
    return np.array([t[node] for node in order])


def check_character_cap(type_name: str) -> None:
    """Refuse (CharacterScaleError) the first node in Gamma order whose character
    table is over the cap; only Weyl dimensions are formed, no table is built."""
    for k in _type_constants(type_name).order:
        fundamental_dim(type_name, k)


class ClassSolve(NamedTuple):
    t: np.ndarray
    residual: float                # of the registered characteristic polynomial at t
    section: CrossSectionFactors   # registered, at t
    chi: np.ndarray                # chi(y) in Gamma order
    spectrum: Spectrum             # of section.full() in the registered representation
    character_residual: float      # relative, of the fundamental characters at t


def _solve_class(rs: RootSystem, bip: Bipartition, order: Tuple[int, ...], y) -> ClassSolve:
    """Section parameters for the class of e^{2 pi i y}, y = (m+x0)/s.

    Returns t, the residual r of the registered characteristic polynomial at
    t, the registered cross-section at t, whose product is M0 when M0 is
    assembled in the registered representation, chi(y) in Gamma order,
    which every route starts from, the Spectrum of that product (the
    registered targets, their charpoly and distinctness, formed once, and
    the eigenvalues whose charpoly gives r) and the relative character
    residual at t (_character_residuals), formed once.  The class is solved
    in the registered representation, whichever representation M0 is then
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

    Both Gauss-Newton runs of the power-sum route evaluate stacks of t
    (_gauss_newton): one stacked section product, one np.linalg.eigvals
    over the stack (_section_spectra), then the power sums over it, read
    from one table of powers per block of rows (_power_sum_residual), or
    np.poly row by row for the polish.  The three power-sum attempts run in
    lockstep.  Each line search tries its step lengths in chunks: from 2^0
    to the length its attempt last accepted, then 7 more, then the rest
    (_TRIAL_CHUNKS).  Every stacked row is bitwise its single evaluation,
    and a search accepts the first good length in order, so t and r are
    bitwise those of evaluating one t at a time.
    """
    name = str(rs.type)
    rep = registered_representation(name)
    check_character_cap(name)
    t0 = torus_character_values(rs, [fundamental_characters(name, k) for k in order], y)
    targets = _targets(rep, y)
    reg_eig, poly, distinct = targets

    def registered_residual(ts) -> list:
        eig, ok = _section_spectra(rep, bip, ts)
        inf = np.full(len(poly), np.inf)
        return [np.poly(e) - poly if good else inf for e, good in zip(eig, ok)]

    def solved(t, r=None, char=None) -> ClassSolve:
        cs = steinberg_section(rep, bip, t)
        spec = _spectrum(rep, y, cs.full(), targets)
        if r is None:
            r = np.max(np.abs(spec.charpoly - poly))
        if char is None:
            char = _character_residuals(name, order, t, t0)
        return ClassSolve(t, float(r), cs, t0, spec, max(char.values()))

    if rs.type.family == "A":
        solve = solved(t0)
        if not solve.residual <= CLASS_TOL:
            raise ConsistencyError(
                f"type-A class: registered residual {solve.residual:.3g} (bound {CLASS_TOL:g})"
                " at t = chi(y)"
            )
        return solve
    route1 = ""
    if rs.type.family in _ADJOINT_PLETHYSM and distinct:
        t_ps, _ = _solve_power_sums(rep, bip, t0, reg_eig)
        t, r = _gauss_newton(registered_residual, t_ps, SOLVE_TOL, 60, 1)
        if r <= CLASS_TOL:
            return solved(t, r)
        route1 = f"; power-sum route: registered residual {r:.3g} (bound {CLASS_TOL:g})"
    t = _closed_form(name, order, t0)
    char = _character_residuals(name, order, t, t0)
    node = max(order, key=char.get)
    if not char[node] <= CHAR_TOL:
        raise ConsistencyError(
            f"class solve failed, closed form: character residual {char[node]:.3g}"
            f" (bound {CHAR_TOL:g}) at node {node}{route1}"
        )
    return solved(t, char=char)


class _TypeConstants(NamedTuple):
    bip: Bipartition
    order: Tuple[int, ...]           # Gamma: Pi_2 block then Pi_1 block (1-based)
    k1_support: Tuple[Root, ...]
    k2_support: Tuple[Root, ...]


@lru_cache(maxsize=None)
def _type_constants(type_name: str) -> _TypeConstants:
    """The bipartition, Gamma order and K1, K2 supports of one type, built once per process.

    Keyed by the type's name, as build_chevalley is, never by a RootSystem.
    The Coxeter element, with its gamma^s check, is formed here once.
    """
    rs = build_root_system(type_name)
    bip = bipartition(rs)
    gamma = coxeter_element(rs, bip)
    k1_support = tuple(rs.simple_roots[i - 1] for i in sorted(bip.i2))
    k2_support = tuple(
        gamma.apply(tuple(-c for c in rs.simple_roots[i - 1])) for i in sorted(bip.i1)
    )
    order = tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))
    return _TypeConstants(bip, order, k1_support, k2_support)


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
    does not change t.  The bipartition, Gamma order and supports are the
    type's constants (_type_constants).
    """
    rs = build_root_system(type_name)
    registered = registered_representation(str(rs.type))
    if rep is None:
        rep = registered
    pt = m if isinstance(m, AlcovePoint) else alcove_map(rs, m)
    if not pt.admissible:
        simple = ", ".join(map(str, pt.slacks_simple))
        raise InadmissibleError(f"m inadmissible: simple slacks ({simple}), psi slack {pt.slack_psi}")
    y = pt.y
    consts = _type_constants(str(rs.type))
    order = consts.order
    t, class_res, cs, _, spectrum, char_res = _solve_class(rs, consts.bip, order, y)
    if rep is not registered:
        cs = steinberg_section(rep, consts.bip, t)
        spectrum = _spectrum(rep, y, cs.full())
    m0 = cs.full()
    k1, k2, a_gamma = cs.rewritten()
    resid = np.max(np.abs(m0 - k1 @ k2 @ a_gamma))
    scale = max(1.0, np.max(np.abs(m0)))
    if resid > FACTOR_TOL * scale:
        raise ConsistencyError(f"M0 != K1 K2 A_gamma: residual {resid}")
    return StokesData(
        type_name=str(rs.type),
        rep=rep,
        m=pt.m,
        y=y,
        t=tuple(complex(c) for c in t),
        gamma_order=order,
        m0=m0,
        k1=k1,
        k2=k2,
        a_gamma=a_gamma,
        k1_support=consts.k1_support,
        k2_support=consts.k2_support,
        factorization_residual=float(resid),
        class_residual=float(class_res),
        character_residual=float(char_res),
        spectrum=spectrum,
    )


# -- supports and multipliers -------------------------------------------------------


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


@dataclass
class FactorSupports:
    residuals: Dict[str, float]          # "k1", "k2": least-squares residual of log K
    multipliers: Dict[str, np.ndarray]   # "k1", "k2": coefficients of log K, in support order


def verify_factor_supports(sd: StokesData) -> FactorSupports:
    """log K1 / log K2 lie in the span of their support root vectors; their coefficients.

    log K is expanded by least squares over sd.rep.root_matrix of the
    support roots, in the representation sd was assembled in, and its
    residual must be at most FACTOR_TOL * max(1, max |log K|).  A nontrivial
    representation of a simple g is faithful, so X lies in span{e_a} in g
    exactly when rep(X) lies in span{rep(e_a)}: this is the check in ad(g),
    read off the K1 and K2 already assembled.  The coefficients are the
    Stokes multipliers: c_i t_i, with constants c_i that depend on the type
    and node only.
    """
    residuals, multipliers = {}, {}
    for name, mat, support in (("k1", sd.k1, sd.k1_support), ("k2", sd.k2, sd.k2_support)):
        x = _unipotent_log(mat).reshape(-1)
        basis = np.stack([sd.rep.root_matrix(r).reshape(-1) for r in support], axis=1)
        coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
        res = float(np.max(np.abs(basis @ coef - x)))
        if res > FACTOR_TOL * max(1.0, float(np.max(np.abs(x)))):
            raise ConsistencyError(f"log {name} leaves its root-space span: {res}")
        residuals[name], multipliers[name] = res, coef
    return FactorSupports(residuals, multipliers)


# -- spectrum check --------------------------------------------------------------

EIG_TOL = 1e-7      # pointwise eigenvalue bound at distinct targets
POLY_TOL = 1e-7     # characteristic-polynomial coefficient bound


@dataclass
class SemisimpleSpectrumReport:
    regular: bool
    charpoly_residual: float
    eigenvalue_residual: float | None
    ok: bool


def semisimple_spectrum_check(sd: StokesData) -> SemisimpleSpectrumReport:
    """Spectrum of M0 against {e^{2 pi i mu(y)} : mu weight of sd.rep}.

    At regular y the eigenvalues must match pointwise; at resonant y (colliding
    predicted eigenvalues) only characteristic polynomials are compared, since
    a unipotent factor is invisible to the spectrum.

    The eigenvalues, charpolys and targets are sd.spectrum's when it was
    formed at an equal y and from this very m0 array (so
    dataclasses.replace(sd, m0=...) is checked afresh); else they are formed
    here in sd.rep, with the same bits.
    """
    spec = sd.spectrum
    if spec is None or spec.m0 is not sd.m0 or spec.y != sd.y:
        spec = _spectrum(sd.rep, sd.y, sd.m0)
    pred = spec.targets
    poly_res = float(np.max(np.abs(spec.charpoly - spec.target_poly)))
    regular = spec.regular
    eig_res = None
    if regular:
        cost = np.abs(pred[:, None] - spec.eigenvalues[None, :])
        ri, ci = linear_assignment(cost)
        eig_res = float(cost[ri, ci].max())
    ok = poly_res <= POLY_TOL and (eig_res is None or eig_res <= EIG_TOL)
    return SemisimpleSpectrumReport(regular, poly_res, eig_res, ok)
