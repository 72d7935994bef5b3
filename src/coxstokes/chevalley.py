"""Concrete Lie-algebra arithmetic over the root-system data.

Basis {H_{a_1},..,H_{a_l}} u {e_a : a in Delta}, normalized so that
B(e_a, e_{-a}) = 1.  Structure constants then satisfy
N(a,b)^2 = q(p+1)(a,a)/2 (root-string numbers p,q), which is irrational for
some short-root pairs, so exact values live in Q(sqrt d).

Signs follow the extraspecial-pair convention over the canonical root order:
extraspecial constants are positive, everything else is derived from the
two invariance identities

    x+y+z = 0           =>  N(x,y) = N(y,z) = N(z,x)
    a+b+c+d = 0 (generic) =>  N(a,b)N(c,d) + N(b,c)N(a,d) + N(c,a)N(b,d) = 0.

Integer encoding.  The build and its exact checks work on numpy int64
tables (``ChevalleyTables``), never on scalar objects:

- root sums as indices into the canonical root order;
- the form as F*(a,b), F the lcm of the Gram-matrix denominators
  (1 for A, B, D, E; 2 for C, F4; 3 for G2);
- N(a,b) = (u + v*sqrt(d))/D as two integer tables u, v, where
  d = D = (long root length^2)/(short root length^2): 1 for A, D, E (so
  the constants are +-1), 2 for B, C, F4, 3 for G2.

The magnitude and Jacobi checks are always on and use integer arithmetic
only, behind a bound check that raises before any product could overflow.
Adjoint matrices (``ChevalleyAlgebra.ad``) are scattered from the same
tables.  ``Sq`` values are made from them only for the public element API
(``nval``, ``bracket``) and for the JSON export.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .rootcore import (
    InvariantViolation,
    Root,
    RootSystem,
    build_root_system,
    check_bound,
    diagram_involution,
)
from .scalars import Sq

Element = Dict[int, object]  # basis index -> scalar (Sq/Fraction/complex)


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise InvariantViolation(f"{num}/{den} leaves the integer encoding")
    return num // den


# -- integer tables ------------------------------------------------------------


@dataclass(frozen=True)
class ChevalleyTables:
    """One type's root data and structure constants as integer arrays.

    Root indices are positions in the canonical order ``rs.roots``.
    """

    roots: np.ndarray   # (n, l) coordinates in the simple-root basis
    neg: np.ndarray     # (n,) index of -a
    sums: np.ndarray    # (n, n) index of a+b; -1: not a root, -2: zero
    inner: np.ndarray   # (n, n) form_den * (a, b)
    form_den: int       # F
    n_rat: np.ndarray   # (n, n) u, where N(a, b) = (u + v sqrt(surd)) / den
    n_surd: np.ndarray  # (n, n) v
    den: int            # D
    surd: int           # d
    q: np.ndarray       # (n, n) b + k a is a root for k = 1..q[a, b]

    @property
    def p(self) -> np.ndarray:
        """(n, n) b - k a is a root for k = 1..p[a, b]; that is q[-a, b].

        Derived, not stored: a second n x n table would add 1.3 MB over the
        16 standard types to every process that keeps them.
        """
        return self.q[self.neg]

    def root(self, i: int) -> Root:
        return tuple(int(c) for c in self.roots[i])

    def n_float(self, a, b) -> np.ndarray:
        """N(a, b) as floats at root indices a, b (ints or index arrays).

        Each N is rational or a rational multiple of sqrt(surd), so this is
        u/D or (v/D) sqrt(surd): the float of its Sq value.
        """
        u, v = self.n_rat[a, b], self.n_surd[a, b]
        return np.where(v == 0, u / self.den, v / self.den * math.sqrt(self.surd))


def _root_tables(rs: RootSystem):
    """Root coordinates, negation and root-sum indices, and the scaled form.

    A root's key is its coordinates shifted by off, read as base-(2 off + 1)
    digits.  Keys are linear: key(a + b) = key(a) + key(b) - key(0), with no
    carry, since every |a + b| coordinate is at most off.
    """
    R = np.array(rs.roots, dtype=np.int64)
    n, l = R.shape
    off = 2 * int(np.abs(R).max())
    base = 2 * off + 1
    check_bound(2 * base**l, "root keys")
    place = base ** np.arange(l, dtype=np.int64)
    keys = (R + off) @ place
    zero = off * int(place.sum())
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def lookup(k: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(sorted_keys, k), n - 1)
        return np.where(sorted_keys[pos] == k, order[pos], -1)

    neg = lookup(2 * zero - keys)
    if (neg < 0).any():
        raise InvariantViolation("the root set is not closed under negation")
    K = keys[:, None] + keys[None, :] - zero
    sums = lookup(K)
    sums[K == zero] = -2

    G, form_den = rs.integer_form
    check_bound(l * l * int(np.abs(R).max()) ** 2 * int(np.abs(G).max()), "inner products")
    inner = R @ G @ R.T
    return R, neg, sums, inner, form_den


def _root_strings(sums: np.ndarray) -> np.ndarray:
    """Root-string numbers: q[i, j] = q means b + k a is a root for k = 1..q,
    for a = root i, b = root j, by iterated table lookups."""
    n = len(sums)
    q = np.zeros((n, n), dtype=np.int64)
    cur = sums.T  # cur[i, j] = index of b + a
    rows = np.arange(n)[:, None]
    for _ in range(n):
        live = cur >= 0
        if not live.any():
            return q
        q += live
        cur = np.where(live, sums[np.maximum(cur, 0), rows], -1)
    raise InvariantViolation("a root string does not terminate")


def _sqrt_pair(m: int, d: int) -> Tuple[int, int]:
    """(u, v) with u + v sqrt(d) = sqrt(m) and u v = 0."""
    r = math.isqrt(m)
    if r * r == m:
        return r, 0
    if m % d == 0:
        r = math.isqrt(m // d)
        if d * r * r == m:
            return 0, r
    raise InvariantViolation(f"sqrt({m}) is not in Z + Z sqrt({d})")


def build_tables(rs: RootSystem) -> ChevalleyTables:
    """Root tables and extraspecial-pair structure constants, unverified."""
    R, neg, sums, inner, F = _root_tables(rs)
    n = len(R)
    diag = np.diagonal(inner)
    d = D = _exact_div(int(diag.max()), int(diag.min()))
    q = _root_strings(sums)
    u = np.zeros((n, n), dtype=np.int64)
    v = np.zeros((n, n), dtype=np.int64)
    S, negl = sums.tolist(), neg.tolist()

    def get(i, j):
        return int(u[i, j]), int(v[i, j])

    def mul(x, y):  # over D^2
        return x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def put(a, b, val):
        # the zero-sum triple (a, b, c) and its negative fix twelve entries
        c = negl[S[a][b]]
        for x, y, sign in ((a, b, 1), (b, c, 1), (c, a, 1), (b, a, -1), (c, b, -1), (a, c, -1)):
            u[x, y], v[x, y] = sign * val[0], sign * val[1]
            u[negl[x], negl[y]], v[negl[x], negl[y]] = -sign * val[0], -sign * val[1]

    positive = [i for i in range(n) if R[i].sum() > 0]
    for g in positive:
        pairs = [(a, b) for a in positive if a < (b := S[g][negl[a]])]
        if not pairs:  # simple root
            continue
        a1, b1 = pairs[0]
        m = _exact_div(int(q[a1, b1]) * (int(q[negl[a1], b1]) + 1) * int(diag[a1]) * D * D, 2 * F)
        n1 = _sqrt_pair(m, d)
        put(a1, b1, n1)
        for a, b in pairs[1:]:
            t1 = mul(get(b1, negl[b]), get(a1, negl[a]))
            t2 = mul(get(negl[b], a1), get(b1, negl[a]))
            tu, tv = t1[0] + t2[0], t1[1] + t2[1]
            if n1[1] == 0:
                val = (-_exact_div(tu, n1[0]), -_exact_div(tv, n1[0]))
            else:
                val = (-_exact_div(tv, n1[1]), -_exact_div(tu, d * n1[1]))
            put(a, b, val)
    for arr in (R, neg, sums, inner, u, v, q):
        arr.flags.writeable = False  # shared by the cached algebra
    return ChevalleyTables(R, neg, sums, inner, F, u, v, D, d, q)


# -- exact checks on the tables ---------------------------------------------------


def verify_magnitudes(t: ChevalleyTables):
    """N(a,b)^2 = q(p+1)(a,a)/2 on bracketable pairs, N = 0 elsewhere, N(-a,-b) = -N(a,b)."""
    u, v, d, D, F, p, q = t.n_rat, t.n_surd, t.surd, t.den, t.form_den, t.p, t.q
    top = max(int(np.abs(u).max()), int(np.abs(v).max()))
    check_bound(2 * F * (1 + d) * top * top, "N^2")
    check_bound(int(q.max()) * (int(p.max()) + 1) * int(np.abs(t.inner).max()) * D * D, "N^2")
    # D^2 N^2 = u^2 + d v^2 + 2uv sqrt(d), against D^2 q(p+1)(a,a)/2
    lhs = 2 * F * (u * u + d * v * v)
    rhs = q * (p + 1) * np.diagonal(t.inner)[:, None] * (D * D)
    bad = np.where(t.sums >= 0, (lhs != rhs) | (u * v != 0), (u != 0) | (v != 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvariantViolation(f"N^2 mismatch at roots {t.root(i)}, {t.root(j)}")
    neg = t.neg
    bad = (u[neg][:, neg] != -u) | (v[neg][:, neg] != -v)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvariantViolation(f"N(-a,-b) != -N(a,b) at {t.root(i)}, {t.root(j)}")


def verify_jacobi(t: ChevalleyTables):
    """Exact Jacobi identity on every triple, checked on the generators e_{+-a_i}.

    First N(b, a) = -N(a, b): the bracket is then antisymmetric, so
    J(x, y, z) = [[x,y],z] + [[y,z],x] + [[z,x],y] is alternating, and
    J(x, ., .) = 0 says exactly that ad x is a derivation.

    Triples involving Cartan elements hold by linearity of the root
    functionals.  For roots a, b, c every term of J(e_a, e_b, e_c) lies on
    e_{a+b+c} (an N N product, or (z,x) e_z when x+y = 0) or, when
    a+b+c = 0, on the Cartan subalgebra.  The Cartan part is checked on every
    triple; the e-part only on the 2l rows a = +-a_i, each over all (b, c).
    Both are checked on integers scaled by D^2 F, the rational and the
    sqrt(d) components separately.

    That covers every triple.  The x for which ad x is a derivation form a
    linear subspace L.  For x in L, ad[x, y] = [ad x, ad y] (the derivation
    rule on [y, z]), and a commutator of derivations is a derivation, so L
    is closed under the bracket.  The rows put every e_{+-a_i} in L, and
    they generate g: [e_{a_i}, e_{-a_i}] = H_{a_i}, and every positive root
    of height k > 1 is a simple root plus a positive root of height k - 1
    (Humphreys, Introduction to Lie Algebras, 10.2), and likewise for the
    negative roots, with N nonzero on each such pair, as
    ``verify_magnitudes`` proves; ``ChevalleyAlgebra`` runs that check
    first.  So L = g, and J vanishes on all of g.
    """
    u, v, S, R, neg = t.n_rat, t.n_surd, t.sums, t.roots, t.neg
    d, D, F = t.surd, t.den, t.form_den
    n = len(neg)
    top = max(int(np.abs(u).max()), int(np.abs(v).max()))
    check_bound(3 * F * (1 + d) * top * top + 3 * D * D * int(np.abs(t.inner).max()), "Jacobi")
    check_bound(6 * top * int(np.abs(R).max()), "Jacobi")
    surd = bool(v.any())

    for X in (u, v):
        bad = X + X.T
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise InvariantViolation(
                f"Jacobi fails: N(b, a) != -N(a, b) at roots {t.root(i)}, {t.root(j)}"
            )

    # Cartan part: a+b+c = 0 means c = -(a+b), one triple per bracketable pair
    I, J = np.nonzero(S >= 0)
    K = neg[S[I, J]]
    for X in (u, v) if surd else (u,):
        h = X[I, J, None] * R[K] + X[J, K, None] * R[I] + X[K, I, None] * R[J]
        bad = h.any(axis=1)
        if bad.any():
            m = int(np.argmax(bad))
            _jacobi_failure(t, I[m], J[m], K[m])

    Sc = np.maximum(S, 0)  # where S < 0 the matching N factor is 0

    def nn(X, Y, i):
        """sum over the cyclic (x, y, z) of X(x, y) Y(x+y, z), on the (b, c) grid."""
        out = X[i][:, None] * Y[Sc[i]]
        out += X * Y[:, i][Sc]
        out += (X[:, i][:, None] * Y[Sc[:, i]]).T
        return out

    for i in np.flatnonzero(np.abs(R).sum(axis=1) == 1):  # the rows a = +-a_i
        ni = neg[i]
        rat = F * nn(u, u, i)
        if surd:
            rat += F * d * nn(v, v, i)
        # (z, x) e_z wherever x + y = 0
        rat[ni, :] += D * D * t.inner[:, i]
        rat[np.arange(n), neg] += D * D * t.inner[i]
        rat[:, ni] += D * D * t.inner[:, ni]
        bad = rat != 0
        if surd:
            bad |= (nn(u, v, i) + nn(v, u, i)) != 0
        if bad.any():
            j, k = np.argwhere(bad)[0]
            _jacobi_failure(t, i, j, k)


def _jacobi_failure(t: ChevalleyTables, i, j, k):
    raise InvariantViolation(
        f"Jacobi fails on roots {t.root(i)}, {t.root(j)}, {t.root(k)}"
    )


# -- the algebra -------------------------------------------------------------------


class ChevalleyAlgebra:
    """Bracket tables and adjoint action for one simple type."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        l = rs.rank
        self.dim = l + len(rs.roots)
        self.root_index = {r: l + k for k, r in enumerate(rs.roots)}
        self.basis_labels = [("h", i + 1) for i in range(l)] + [
            ("e", r) for r in rs.roots
        ]
        self._ridx = {r: i for i, r in enumerate(rs.roots)}
        self._simple_idx = [self._ridx[a] for a in rs.simple_roots]
        t = self.tables = build_tables(rs)
        verify_magnitudes(t)
        verify_jacobi(t)

    @cached_property
    def _nvals(self) -> np.ndarray:
        """N(a, b) as Sq objects for the element API, one object per distinct value."""
        t = self.tables
        code = t.n_rat * (2 * int(np.abs(t.n_surd).max()) + 1) + t.n_surd
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
        sq = np.empty(len(first), dtype=object)
        sq[:] = [
            Sq(Q(int(t.n_rat.flat[k]), t.den), Q(int(t.n_surd.flat[k]), t.den), t.surd)
            for k in first
        ]
        return sq[inverse.reshape(code.shape)]

    def nval(self, x: Root, y: Root) -> Sq:
        """N(x,y) for arbitrary roots with x+y a root (0 if x+y not a root)."""
        return self.nval_idx(self._ridx[x], self._ridx[y])

    def nval_idx(self, i: int, j: int) -> Sq:
        return self._nvals[i, j]

    def n_float(self, x: Root, y: Root) -> float:
        """float(nval(x, y)), read from the integer tables without building the Sq table."""
        return float(self.tables.n_float(self._ridx[x], self._ridx[y]))

    # -- elements and brackets ------------------------------------------------

    def h(self, coeffs: Sequence) -> Element:
        return {i: c for i, c in enumerate(coeffs) if _nz(c)}

    def e(self, root: Root, coeff=1) -> Element:
        return {self.root_index[root]: coeff}

    def add(self, *els: Element) -> Element:
        out: Element = {}
        for el in els:
            for k, v in el.items():
                w = out.get(k, 0) + v
                if _nz(w):
                    out[k] = w
                elif k in out:
                    del out[k]
        return out

    def scale(self, el: Element, c) -> Element:
        return {k: c * v for k, v in el.items()} if _nz(c) else {}

    def label(self, idx: int):
        return self.basis_labels[idx]

    def _pair_bracket(self, i: int, j: int) -> Element:
        """Bracket of basis elements i, j."""
        rs = self.rs
        t = self.tables
        l = rs.rank
        if i < l and j < l:
            return {}
        if i < l:  # [H_i, e_b]
            c = int(t.inner[j - l, self._simple_idx[i]])
            return {j: Q(c, t.form_den)} if c else {}
        if j < l:
            out = self._pair_bracket(j, i)
            return {k: -v for k, v in out.items()}
        ia, ib = i - l, j - l
        s = int(t.sums[ia, ib])
        if s == -2:
            a = rs.roots[ia]
            return self.h([Q(x) for x in a])
        if s >= 0:
            n = self.nval_idx(ia, ib)
            return {l + s: n} if n else {}
        return {}

    def bracket(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for i, cx in x.items():
            for j, cy in y.items():
                for k, v in self._pair_bracket(i, j).items():
                    w = out.get(k, 0) + cx * cy * v
                    if _nz(w):
                        out[k] = w
                    elif k in out:
                        del out[k]
        return out

    def ad(self, terms: Mapping[Root, complex]) -> np.ndarray:
        """Adjoint matrix of sum c_a e_a (terms: root a -> c_a) on the full basis.

        Scattered from the tables: column H_k holds -c_a (a, a_k) at e_a,
        column e_b holds c_a N(a, b) at e_{a+b}, and column e_{-a} holds c_a a
        on the Cartan rows.  Each entry comes from one term, so no entry is
        summed, and N is the float of its Sq value.
        """
        t, l = self.tables, self.rs.rank
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for root, c in terms.items():
            a = self._ridx[root]
            h = -t.inner[a, self._simple_idx]
            k = np.flatnonzero(h)
            out[l + a, k] = c * (h[k] / t.form_den)
            b = np.flatnonzero(t.n_rat[a] | t.n_surd[a])
            out[l + t.sums[a, b], l + b] = c * t.n_float(a, b)
            k = np.flatnonzero(t.roots[a])
            out[k, l + t.neg[a]] = c * t.roots[a, k]
        return out

    def form(self, x: Element, y: Element):
        """The normalized invariant form B on elements."""
        rs = self.rs
        l = rs.rank
        tot = 0
        for i, cx in x.items():
            for j, cy in y.items():
                if i < l and j < l:
                    tot = tot + cx * cy * rs.form[i][j]
                elif i >= l and j >= l:
                    a, b = rs.roots[i - l], rs.roots[j - l]
                    if _add(a, b) == (0,) * l:
                        tot = tot + cx * cy
        return tot

    def height_of_index(self, idx: int) -> int:
        if idx < self.rs.rank:
            return 0
        return sum(self.rs.roots[idx - self.rs.rank])


def _nz(v) -> bool:
    if isinstance(v, complex):
        return v != 0
    return bool(v)


@lru_cache(maxsize=None)
def _build_chevalley_cached(type_name: str) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(build_root_system(type_name))


def build_chevalley(rs_or_type) -> ChevalleyAlgebra:
    """Build (and exactly verify) the Chevalley-type algebra for one type.

    Accepts a RootSystem, an AlgebraType or a type string; one verified
    instance is cached per type.
    """
    name = str(getattr(rs_or_type, "type", rs_or_type))
    return _build_chevalley_cached(name)


# -- principal TDS -----------------------------------------------------------


@dataclass
class PrincipalTriple:
    x0: Element
    e0: Element
    f0: Element
    coefficients: Tuple


def principal_tds(alg: ChevalleyAlgebra, a: Sequence | None = None) -> PrincipalTriple:
    """The sl2-triple (x0, e0, f0) with e0 = sum a_i e_{a_i}, f0 = sum (r_i/a_i) e_{-a_i}."""
    rs = alg.rs
    l = rs.rank
    r = rs.r_coeffs
    if a is None:
        a = [float(ri) ** 0.5 for ri in r]
    a = list(a)
    if len(a) != l or any(not _nz(c) for c in a):
        raise ValueError("need l nonzero coefficients")
    x0 = alg.h(r)
    e0 = alg.add(*(alg.e(rs.simple_roots[i], a[i]) for i in range(l)))
    exact = all(isinstance(c, (int, Q, Sq)) for c in a)
    inv = [Sq(r[i]) / Sq(a[i]) if exact else float(r[i]) / a[i] for i in range(l)]
    f0 = alg.add(*(alg.e(_neg(rs.simple_roots[i]), inv[i]) for i in range(l)))

    checks = [
        alg.add(alg.bracket(x0, e0), alg.scale(e0, -1)),
        alg.add(alg.bracket(x0, f0), f0),
        alg.add(alg.bracket(e0, f0), alg.scale(x0, -1)),
    ]
    for res in checks:
        if exact:
            if any(_nz(v) for v in res.values()):
                raise InvariantViolation(f"TDS relation failed exactly: {res}")
        else:
            if any(abs(complex(v)) > 1e-10 for v in res.values()):
                raise InvariantViolation(f"TDS relation failed numerically: {res}")
    return PrincipalTriple(x0, e0, f0, tuple(a))


def tau_diagonal(alg: ChevalleyAlgebra) -> np.ndarray:
    """Ad(P0) on the basis: phase e^{2 pi i ht/s} on e_a, 1 on the Cartan part."""
    s = alg.rs.coxeter_number
    return np.array(
        [np.exp(2j * np.pi * alg.height_of_index(i) / s) for i in range(alg.dim)]
    )


@dataclass
class PrincipalElement:
    order: int                     # s; tau^s = Ad(P0)^s = identity
    tau: np.ndarray                # diagonal of Ad(P0) on the algebra basis
    matrix: np.ndarray | None      # P0 itself in a registered representation


def principal_element(alg: ChevalleyAlgebra, rep=None) -> PrincipalElement:
    """P0 = exp(2 pi i x0/s): its adjoint action, and its matrix in a representation.

    When no representation is passed, the registered one is used where it
    exists (E7/E8 expose the adjoint phases only).
    """
    mat = None
    if rep is None:
        from .weightrep import UnsupportedRepresentationError, registered_representation

        try:
            rep = registered_representation(str(alg.rs.type))
        except UnsupportedRepresentationError:
            rep = None
    if rep is not None:
        mat = rep.p0_matrix()
    return PrincipalElement(alg.rs.coxeter_number, tau_diagonal(alg), mat)


# -- real-form involutions, generator-level rules only ---------------------------


def involution_rules(alg: ChevalleyAlgebra) -> Dict[str, Dict]:
    """Generator-level actions of rho (compact), theta (split) and chi = sigma rho.

    These are documentation/spot-test surfaces only; no computation consumes
    them.  Keys map basis labels of the simple/highest root vectors to
    (image label, sign); conjugate-linearity is recorded per involution.
    """
    rs = alg.rs
    sd = sigma_nu(alg)
    gens = [rs.psi, _neg(rs.psi)]
    for a in rs.simple_roots:
        gens += [a, _neg(a)]

    rho = {("e", r): (("e", _neg(r)), -1) for r in gens}
    rho.update({("h", i + 1): (("h", i + 1), -1) for i in range(rs.rank)})
    theta = {("e", r): (("e", r), 1) for r in gens}
    theta.update({("h", i + 1): (("h", i + 1), 1) for i in range(rs.rank)})
    chi = {}
    for r in gens:
        img, sign = sd.signs[r]
        chi[("e", r)] = (("e", _neg(img)), -sign)  # chi = sigma o rho on root vectors
    for i in range(rs.rank):
        chi[("h", i + 1)] = (("h", sd.nu[i]), -1)
    return {
        "rho": {"conjugate_linear": True, "action": rho},
        "theta": {"conjugate_linear": True, "action": theta},
        "chi": {"conjugate_linear": True, "action": chi},
    }


# -- sigma / nu ---------------------------------------------------------------


@dataclass(frozen=True)
class SigmaData:
    nu: Tuple[int, ...]                     # 1-based permutation, nu[i-1] = nu(i)
    sigma_on_h: Tuple[Tuple[Q, ...], ...]   # matrix on H_{a_i} coordinates
    signs: Dict[Root, Tuple[Root, object]]  # e_root -> (image root, sign)


def sigma_nu(alg: ChevalleyAlgebra) -> SigmaData:
    """sigma on the Cartan subalgebra, simple root vectors, and e_{+-psi}."""
    rs = alg.rs
    l = rs.rank
    nu = diagram_involution(rs)
    mat = tuple(
        tuple(Q(int(nu[j] - 1 == i)) for j in range(l)) for i in range(l)
    )
    signs: Dict[Root, Tuple[Root, int]] = {}
    for i in range(l):
        a = rs.simple_roots[i]
        img = rs.simple_roots[nu[i] - 1]
        signs[a] = (img, -1)
        signs[_neg(a)] = (_neg(img), -1)
    signs[rs.psi] = (rs.psi, -1)
    signs[_neg(rs.psi)] = (_neg(rs.psi), -1)
    if any(nu[nu[i] - 1] != i + 1 for i in range(l)):
        raise InvariantViolation("nu is not an involution")
    if any(rs.r_coeffs[i] != rs.r_coeffs[nu[i] - 1] for i in range(l)):
        raise InvariantViolation("the principal coefficients r_i are not nu-symmetric")
    return SigmaData(nu, mat, signs)


# -- Toda zero-curvature identity ---------------------------------------------


def toda_bracket_identity(
    alg: ChevalleyAlgebra, w: Sequence, c_minus: Sequence, c_plus: Sequence
) -> float:
    """Max-norm residual of [Ad(e^w)E_-, Ad(e^{-w})E_+] + sum c-c+ e^{-2a_i(w)} H_{a_i}.

    w is given in H_{a_i} coordinates; the identity is the zero-curvature
    right-hand side of the Toda system and must vanish.
    """
    rs = alg.rs
    l = rs.rank
    if len(c_minus) != l + 1 or len(c_plus) != l + 1:
        raise ValueError("need coefficients for i = 0..l")
    alphas = [rs.alpha0] + list(rs.simple_roots)
    em: Element = {}
    ep: Element = {}
    hterm: Element = {}
    for i, a in enumerate(alphas):
        aw = float(rs.pairing(a, w))
        em = alg.add(em, alg.e(_neg(a), complex(c_minus[i]) * np.exp(-aw)))
        ep = alg.add(ep, alg.e(a, complex(c_plus[i]) * np.exp(-aw)))
        coeff = complex(c_minus[i]) * complex(c_plus[i]) * np.exp(-2 * aw)
        hterm = alg.add(hterm, {j: coeff * a[j] for j in range(l)})
    res = alg.add(alg.bracket(em, ep), hterm)
    return max((abs(complex(v)) for v in res.values()), default=0.0)


# -- JSON export ---------------------------------------------------------------


def _sq_str(v: Sq) -> str:
    if isinstance(v, Sq):
        return repr(v)
    return str(v)


def export_structure_constants(alg: ChevalleyAlgebra) -> str:
    """JSON table of N(a,b) over all bracketable root pairs, exact string values."""
    rs = alg.rs
    entries = []
    for a in rs.roots:
        for b in rs.roots:
            if rs.is_root(_add(a, b)):
                entries.append(
                    {"alpha": list(a), "beta": list(b), "n": _sq_str(alg.nval(a, b))}
                )
    return json.dumps(
        {
            "schema_version": 1,
            "type": str(rs.type),
            "normalization": "B(e_a, e_-a) = 1, extraspecial pairs positive",
            "entries": entries,
        },
        indent=1,
    )
