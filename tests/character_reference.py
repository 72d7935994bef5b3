"""The reference behind the closed-form class solve (steinberg.character_map).

Two independent evaluations of the fundamental characters chi_i(C(t)) of the
Steinberg cross-section:

- in floats, from the sections of the representations the characters are
  traces of (fundamental_traces), and back-substitution on them
  (back_substitute): the class solve the closed form replaced;
- exactly, as integer polynomials derived from their values on an integer
  grid (exact_character_map), which the tests compare with character_map.

It also holds the adjoint representation as a section source
(AdjointSection), which the character sources and the adjoint support check
of tests/test_supports.py read, its exact matrices read pair by pair from
the Chevalley tables (exact_ad), and the constants of the Stokes multipliers
(MULTIPLIER_CONSTANTS).

No module of the package imports this one (tests/test_imports.py).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, Tuple

import numpy as np

from coxstokes.chevalley import build_chevalley
from coxstokes.characters import WeightPairing, fundamental_characters
from coxstokes.coxeter import bipartition
from coxstokes.rootcore import RootSystem, build_root_system
from coxstokes.steinberg import CHAR_TOL, ConsistencyError, steinberg_section
from coxstokes.weightrep import NilpotentExp, fundamental_representation, weyl_representative
from rational_reference import mat_inv

# log K1 = sum c_i t_i e_{alpha_i} and log K2 = sum c_j t_j e_{gamma(-alpha_j)}: the
# constants c of the Stokes multipliers c_i t_i, in Gamma order (Pi_2 ascending,
# then Pi_1 ascending), for every registered type (tests/test_supports.py)
MULTIPLIER_CONSTANTS = {
    "A2": (1, 1),
    "A3": (1, 1, -1),
    "A4": (1, 1, 1, -1),
    "A5": (1, 1, 1, -1, -1),
    "A6": (1, 1, 1, 1, -1, -1),
    "B2": (2, -2),
    "B3": (1, 1, -2),
    "B4": (1, 2, 1, 2),
    "C3": (2, 2 * math.sqrt(2), 2),
    "D4": (1, 1, -1, -1),
    "D5": (1, 1, 1, 1, 1),
    "G2": (1, 3),
    "F4": (1, 2, 1, -2 * math.sqrt(2)),
    "E6": (1, 1, 1, 1, 1, -1),
}

# -- floats: the adjoint representation as a section source ----------------------------


class AdjointSection:
    """The adjoint representation as the cross-section and the character reference use it.

    It has the section_factors(i), dim and weight_values of a Representation,
    so steinberg_section and steinberg._target_eigenvalues take it in place
    of one; its weights are the roots in rs.roots order, then l zeros.  No
    module of the package builds it: the support check reads the K1 and K2
    of the representation M0 is assembled in.
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


@lru_cache(maxsize=None)
def adjoint_section(type_name: str) -> AdjointSection:
    """The adjoint cross-section factors, built once per type."""
    return AdjointSection(build_root_system(type_name))


# -- floats: characters read off sections ------------------------------------------


def lambda2(g: np.ndarray) -> complex:
    """The trace of g on Lambda^2: (tr(g)^2 - tr(g^2))/2."""
    return (np.trace(g) ** 2 - np.sum(g * g.T)) / 2


def characters_from_matrices(rs: RootSystem, mats: Dict) -> np.ndarray:
    """chi_1 .. chi_l (Bourbaki order) of one element, from its matrices.

    mats maps i to the element in V(omega_i) and "ad" to it in the adjoint
    representation, for the keys character_sections uses.  A-D: e_k, the
    trace on Lambda^k of V(omega_1), gives chi_k (e_k - e_{k-2} in type C)
    below the spin nodes, whose characters are the spin traces.  G2, F4, E6:
    traces and Lambda^2 of the small and adjoint representations.
    """
    family, l = rs.type.family, rs.rank
    if family in "ABCD":
        e = np.poly(mats[1])[: l + 1] * (-1.0) ** np.arange(l + 1)
        spins = [np.trace(mats[k]) for k in sorted(set(mats) - {1})]
        if family == "C":
            return e[1:] - np.concatenate([[0.0], e[: l - 1]])
        return np.concatenate([e[1 : l + 1 - len(spins)], spins])
    ad = mats["ad"]
    tr_ad = np.trace(ad)
    if family == "G":
        return np.array([np.trace(mats[1]), tr_ad])
    if family == "F":
        v = mats[4]
        return np.array([tr_ad, lambda2(ad) - tr_ad, lambda2(v) - tr_ad, np.trace(v)])
    v, w = mats[1], mats[6]
    return np.array(
        [np.trace(v), tr_ad, lambda2(v), lambda2(ad) - tr_ad, lambda2(w), np.trace(w)]
    )


@lru_cache(maxsize=None)
def character_sections(type_name: str):
    """rs, its bipartition, and the representations the characters are read from."""
    rs = build_root_system(type_name)
    l = rs.rank
    sources = {"G2": (1, "ad"), "F4": (4, "ad"), "E6": (1, 6, "ad")}.get(str(rs.type)) or {
        "A": (1,), "B": (1, l), "C": (1,), "D": (1, l - 1, l)}[rs.type.family]
    reps = {
        key: adjoint_section(str(rs.type)) if key == "ad"
        else fundamental_representation(str(rs.type), key)
        for key in sources
    }
    return rs, bipartition(rs), reps


def gamma_order(type_name: str) -> Tuple[int, ...]:
    """The nodes in Gamma order: Pi_2 ascending, then Pi_1 ascending."""
    bip = bipartition(build_root_system(type_name))
    return tuple(sorted(bip.i2)) + tuple(sorted(bip.i1))


def fundamental_traces(type_name: str, t) -> np.ndarray:
    """chi_i(C(t)) for every fundamental weight omega_i, in Gamma order like t."""
    rs, bip, reps = character_sections(type_name)
    mats = {key: steinberg_section(rep, bip, t).full() for key, rep in reps.items()}
    return characters_from_matrices(rs, mats)[np.array(gamma_order(type_name)) - 1]


def height_order(type_name: str) -> Tuple[Tuple[int, int], ...]:
    """(Gamma position, node) pairs sorted by ht omega_node, the row sum of the inverse Cartan matrix."""
    ainv = build_root_system(type_name).cartan_inv
    return tuple(sorted(enumerate(gamma_order(type_name)), key=lambda pn: sum(ainv[pn[1] - 1])))


def back_substitute(type_name: str, chi: np.ndarray) -> Tuple[np.ndarray, float]:
    """t with chi(C(t)) = chi (Gamma order), by l + 1 section evaluations.

    chi_i(C(t)) = t_i + f_i(t_j : ht omega_j < ht omega_i), so in height
    order t_i = chi_i - chi_i(C(t_<i, 0, ...)).  Returns t and the relative
    character residual, which must be at most CHAR_TOL.
    """
    order = height_order(type_name)
    t = np.zeros(len(chi), dtype=complex)
    for p, _ in order:
        t[p] = chi[p] - fundamental_traces(type_name, t)[p]
    res = np.abs(fundamental_traces(type_name, t) - chi) / np.maximum(1.0, np.abs(chi))
    r = float(np.max(res))
    if not r <= CHAR_TOL:
        raise ConsistencyError(f"back-substitution: character residual {r:.3g}")
    return t, r


# -- exact: the character polynomials from an integer grid ----------------------------

EXACT = 2.0**52   # integers below this are exact float64 values, as are sums of them


class Rational:
    """A stack of rational matrices ints / den, the ints held exactly in float64.

    Every product asserts that the sum of absolute products bounding each
    entry stays below 2^52, so the float matmul is exact integer arithmetic.
    """

    def __init__(self, ints: np.ndarray, den: int = 1):
        assert np.all(ints == np.round(ints)) and np.abs(ints).max(initial=0) < EXACT
        g = math.gcd(den, int(np.gcd.reduce(ints.astype(np.int64).ravel()))) if den > 1 else 1
        self.ints, self.den = ints / g, den // g

    @staticmethod
    def of(n: int, entries: Dict[Tuple[int, int], Q]) -> "Rational":
        """The n x n matrix with these nonzero entries ((row, col) -> Fraction)."""
        den = math.lcm(1, *(Q(x).denominator for x in entries.values()))
        ints = np.zeros((n, n))
        for (r, c), x in entries.items():
            ints[r, c] = int(Q(x) * den)
        return Rational(ints, den)

    def __matmul__(self, other: "Rational") -> "Rational":
        bound = np.abs(self.ints) @ np.abs(other.ints)
        assert bound.max(initial=0) < EXACT, "product leaves the exact float range"
        return Rational(self.ints @ other.ints, self.den * other.den)

    def __add__(self, other: "Rational") -> "Rational":
        den = math.lcm(self.den, other.den)
        return Rational(self.ints * (den // self.den) + other.ints * (den // other.den), den)

    def scaled(self, c) -> "Rational":
        c = Q(c)
        return Rational(self.ints * c.numerator, self.den * c.denominator)


def _exp_terms(x: Rational) -> Tuple[Rational, ...]:
    """x^k / k! for k = 0, 1, ... up to the last nonzero power of the nilpotent x."""
    terms = [Rational(np.eye(x.ints.shape[0]))]
    while True:
        nxt = (terms[-1] @ x).scaled(Q(1, len(terms)))
        if not nxt.ints.any():
            return tuple(terms)
        terms.append(nxt)


def _exp(terms: Tuple[Rational, ...], b: int) -> Rational:
    out = terms[0]
    for k, term in enumerate(terms[1:], start=1):
        out = out + term.scaled(b**k)
    return out


def exact_ad(alg, root) -> Dict[Tuple[int, int], Tuple[Q, Q]]:
    """ad e_root exactly, as {(row, col): (a, b)} for the nonzero entries a + b sqrt(d).

    One bracket [e_root, x_j] per basis element x_j, read pair by pair from
    the integer tables: [e_a, H_k] = -(a, a_k) e_a, [e_a, e_b] = N(a, b)
    e_{a+b} with N = (u + v sqrt(d))/D, and [e_a, e_{-a}] = H_a.
    """
    t, rs = alg.tables, alg.rs
    l = rs.rank
    a = alg.root_index[root] - l
    out = {}
    for k, ak in enumerate(rs.simple_roots):
        h = -int(t.inner[a, alg.root_index[ak] - l])
        if h:
            out[l + a, k] = (Q(h, t.form_den), Q(0))
    for b in range(len(t.neg)):
        s = int(t.sums[a, b])
        if s >= 0:
            out[l + s, l + b] = (Q(int(t.n_rat[a, b]), t.den), Q(int(t.n_surd[a, b]), t.den))
        elif s == -2:
            out.update({(k, l + b): (Q(int(c)), Q(0)) for k, c in enumerate(t.roots[a]) if c})
    return out


def _surd_block(n: int, parts: Dict[Tuple[int, int], Tuple[Q, Q]], d: int) -> Rational:
    """The n x n matrix with entries a + b sqrt(d), given as (a, b), as the block
    matrix [[A, d B], [B, A]] (A if d = 1).

    X -> [[A, d B], [B, A]] is a ring homomorphism from matrices over Q(sqrt d),
    so products stay exact; tr X = (tr of the block)/2 + sqrt(d) (tr of B).
    """
    if d == 1:
        return Rational.of(n, {key: a for key, (a, _) in parts.items()})
    block = {}
    for (r, c), (a, b) in parts.items():
        block[r, c] = block[r + n, c + n] = a
        block[r + n, c], block[r, c + n] = b, d * b
    return Rational.of(2 * n, {key: v for key, v in block.items() if v})


@lru_cache(maxsize=None)
def exact_generators(type_name: str, source) -> Tuple[Tuple[Rational, Rational], ...]:
    """(e_i, f_i) per node in the source representation, exactly.

    source k is V(omega_k), with its exact Shapovalov matrices; "ad" is the
    adjoint representation with e_i = ad e_{alpha_i} / L_i and f_i =
    ad e_{-alpha_i}, as AdjointSection has them, from the
    exact brackets of the Chevalley tables.  Their entries lie in Q(sqrt d),
    a real extension outside the simply-laced types, so they enter as
    _surd_block matrices.
    """
    rs = build_root_system(type_name)
    if source != "ad":
        rep = fundamental_representation(type_name, source)

        def exact(m):
            return Rational.of(rep.dim, {(r, c): x for (r, c), x in np.ndenumerate(m) if x})

        return tuple((exact(e), exact(f)) for e, f in zip(rep.e_chev, rep.f_chev))
    alg = build_chevalley(type_name)
    out = []
    for a in rs.simple_roots:
        mats = []
        for root, scale in ((a, 1 / (Q(rs.inner(a, a)) / 2)), (tuple(-c for c in a), Q(1))):
            parts = {key: (u * scale, v * scale) for key, (u, v) in exact_ad(alg, root).items()}
            mats.append(_surd_block(alg.dim, parts, alg.tables.surd))
        out.append(tuple(mats))
    return tuple(out)


def source_weights(type_name: str, source) -> Counter:
    """The weight multiset (Dynkin labels) of a source representation."""
    rs = build_root_system(type_name)
    if source == "ad":
        return Counter([rs.to_dyn(r) for r in rs.roots] + [(0,) * rs.rank] * rs.rank)
    return Counter(fundamental_representation(type_name, source).basis_weights)


def recipe(type_name: str, node: int) -> Tuple[Tuple[int, object, int], ...]:
    """chi_node as (sign, source, k) terms, each sign times the trace on Lambda^k of the source.

    B_n below the spin node, D_n below the half-spin nodes and A_n:
    Lambda^k of the vector representation; C_n: Lambda^k - Lambda^(k-2) of
    it; the (half-)spin nodes: their own traces.  G2: the 7 and Lambda^2(7) -
    7; F4: the 26, the adjoint, Lambda^2(26) - ad and Lambda^2(ad) - ad; E6:
    the 27 and its dual, the adjoint, their Lambda^2, and Lambda^3(27).
    """
    rs = build_root_system(type_name)
    family, l = rs.type.family, rs.rank
    tables = {
        "G2": {1: ((1, 1, 1),), 2: ((1, 1, 2), (-1, 1, 1))},
        "F4": {
            1: ((1, "ad", 1),),
            2: ((1, "ad", 2), (-1, "ad", 1)),
            3: ((1, 4, 2), (-1, "ad", 1)),
            4: ((1, 4, 1),),
        },
        "E6": {
            1: ((1, 1, 1),), 2: ((1, "ad", 1),), 3: ((1, 1, 2),),
            4: ((1, 1, 3),), 5: ((1, 6, 2),), 6: ((1, 6, 1),),
        },
    }
    if str(rs.type) in tables:
        return tables[str(rs.type)][node]
    spin = {"A": l + 1, "B": l, "C": l + 1, "D": l - 1}[family]
    if node >= spin:
        return ((1, node, 1),)
    if family == "C" and node >= 2:
        return ((1, 1, node), (-1, 1, node - 2))
    return ((1, 1, node),)


def recipe_weights(type_name: str, node: int) -> Counter:
    """The signed weight multiset of the recipe: sums of k distinct source weights."""
    out: Counter = Counter()
    for sign, source, k in recipe(type_name, node):
        weights = list(source_weights(type_name, source).elements())
        for subset in combinations(range(len(weights)), k):
            mu = tuple(map(sum, zip(*(weights[i] for i in subset)))) if k else (0,) * len(weights[0])
            out[mu] += sign
    return Counter({mu: m for mu, m in out.items() if m})


def degree_bound(type_name: str, node: int) -> Tuple[int, ...]:
    """N_j = max mu_j over the weights mu of V(omega_node), per node j.

    t_j enters C(t) = E_1(t_1) n_1 ... E_l(t_l) n_l only through E_j(t_j) =
    exp(t_j e_j) = sum_k t_j^k e_j^k / k!.  On V(omega_node), e_j raises
    mu_j by 2 along each alpha_j-string, which runs from -a to a with a <=
    N_j, so e_j^(N_j + 1) = 0 there.  chi_node(C(t)) is the trace of C(t) on
    V(omega_node), so its degree in t_j is at most N_j, and its values on
    the grid {0, .., N_j} per variable determine it.
    """
    table = fundamental_characters(type_name, node)
    return tuple(max(mu[j] for mu, _ in table.weights) for j in range(len(table.highest_weight)))


def _newton_e(p: Dict[int, np.ndarray], k: int) -> np.ndarray:
    """e_k from the power sums p_1 .. p_k (object arrays of ints), by Newton's identities.

    n e_n = sum_i (-1)^(i-1) e_(n-i) p_i; each division is asserted exact.
    """
    e = [np.ones(p[1].shape, dtype=object)]
    for n in range(1, k + 1):
        total = sum((-1) ** (i - 1) * e[n - i] * p[i] for i in range(1, n + 1))
        assert not any(total % n), "e_k is not an integer"
        e.append(total // n)
    return e[k]


def grid_values(type_name: str, node: int) -> np.ndarray:
    """chi_node(C(t)) exactly at every t of the grid of degree_bound, axes in Bourbaki order.

    The recipe's trace equals chi_node at every group element: its weight
    multiset is that of V(omega_node) (asserted here), a trace equals the
    trace of the semisimple part, and on the torus a trace is the weight sum.
    """
    assert recipe_weights(type_name, node) == Counter(dict(fundamental_characters(type_name, node).weights))
    bound = degree_bound(type_name, node)
    order = gamma_order(type_name)
    size = math.prod(b + 1 for b in bound)
    total = np.zeros(size, dtype=object)
    for sign, source, k in recipe(type_name, node):
        if k == 0:
            total = total + sign   # the trivial character
            continue
        gens = exact_generators(type_name, source)
        # C(t) for every grid point, Gamma order major to minor
        stack = Rational(np.eye(gens[0][0].ints.shape[0])[None])
        for j in order:
            e_terms = _exp_terms(gens[j - 1][0])
            minus_e = _exp(e_terms, -1)
            n_j = minus_e @ _exp(_exp_terms(gens[j - 1][1]), 1) @ minus_e
            factors = [_exp(e_terms, b) @ n_j for b in range(bound[j - 1] + 1)]
            den = math.lcm(*(f.den for f in factors))
            fac = Rational(np.stack([f.ints * (den // f.den) for f in factors])[None], den)
            prod = Rational(stack.ints[:, None], stack.den) @ fac
            stack = Rational(prod.ints.reshape(-1, *prod.ints.shape[2:]), prod.den)
        p = _power_sums(stack, k, surd=source == "ad" and build_chevalley(type_name).tables.surd != 1)
        total = total + sign * _newton_e(p, k)
    shape = tuple(bound[j - 1] + 1 for j in order)
    return total.reshape(shape).transpose(np.argsort(order))


def _power_sums(stack: Rational, k: int, surd: bool) -> Dict[int, np.ndarray]:
    """p_i = tr(C^i), i = 1..k, as object arrays of ints, one per grid point.

    For a surd block [[A, d B], [B, A]] of X, tr X^i is half the block trace,
    once the trace of its lower-left block, the surd part of tr X^i, is
    asserted to be 0.
    """
    x = stack.ints
    h = x.shape[-1] // 2
    powers = [np.broadcast_to(np.eye(x.shape[-1]), x.shape), x]
    while len(powers) <= (k + 1) // 2:
        assert (np.abs(powers[-1]) @ np.abs(x)).max() < EXACT, "product leaves the exact float range"
        powers.append(powers[-1] @ x)
    out = {}
    for i in range(1, k + 1):
        a, b = powers[(i + 1) // 2], powers[i // 2]
        assert np.einsum("mij,mji->m", np.abs(a), np.abs(b)).max() < EXACT
        trace = np.einsum("mij,mji->m", a, b)
        if surd:
            assert not np.einsum("mij,mji->m", a[:, h:], b[:, :, :h]).any(), "surd power sum"
            trace = trace / 2
        traces = trace.astype(np.int64).astype(object)
        assert not any(traces % stack.den**i), "a power sum is not an integer"
        out[i] = traces // stack.den**i
    return out


def interpolate(values: np.ndarray) -> Dict[Tuple[int, ...], int]:
    """The monomial coefficients (exponent tuple -> integer) of the polynomial with these grid values.

    values[i_1, .., i_l] is the (integer) value at t = (i_1, .., i_l); axis j
    has N_j + 1 points, and the polynomial has degree at most N_j in t_j, so
    the inverse Vandermonde matrix of 0..N_j, applied along each axis, gives
    its coefficients.
    """
    coef, den = values.astype(object), 1
    for axis, size in enumerate(values.shape):
        inv = mat_inv([[Q(x) ** k for k in range(size)] for x in range(size)])
        scale = math.lcm(*(x.denominator for row in inv for x in row))
        ints = np.array([[int(x * scale) for x in row] for row in inv], dtype=object)
        coef = np.moveaxis(np.tensordot(ints, coef, axes=([1], [axis])), 0, axis)
        den *= scale
    assert not any((coef % den).flat), "a coefficient is not an integer"
    return {exps: int(c // den) for exps, c in np.ndenumerate(coef) if c}


@lru_cache(maxsize=None)
def exact_character_map(type_name: str) -> Dict[int, Dict[Tuple[int, ...], int]]:
    """chi_node(C(t)) per node as exponent tuple (Bourbaki order) -> integer coefficient."""
    l = build_root_system(type_name).rank
    return {node: interpolate(grid_values(type_name, node)) for node in range(1, l + 1)}


# -- integer polynomials in Bourbaki variables ------------------------------------------


def exponents(poly: Dict[Tuple[int, ...], int], l: int) -> Dict[Tuple[int, ...], int]:
    """A character_map polynomial (monomial = tuple of nodes) with exponent tuples as keys."""
    out = {}
    for mono, c in poly.items():
        counts = Counter(mono)
        out[tuple(counts[j] for j in range(1, l + 1))] = c
    return out


def compose(outer: Dict[int, Dict], inner: Dict[int, Dict], l: int) -> Dict[int, Dict]:
    """outer(inner(t)) node by node, both in exponent-tuple form."""

    def mul(p, q):
        out: Counter = Counter()
        for (a, c), (b, d) in product(p.items(), q.items()):
            out[tuple(x + y for x, y in zip(a, b))] += c * d
        return {k: v for k, v in out.items() if v}

    one = {(0,) * l: 1}
    result = {}
    for node, poly in outer.items():
        total: Counter = Counter()
        for exps, c in poly.items():
            term = one
            for j, e in enumerate(exps, start=1):
                for _ in range(e):
                    term = mul(term, inner[j])
            for k, v in term.items():
                total[k] += c * v
        result[node] = {k: v for k, v in total.items() if v}
    return result
