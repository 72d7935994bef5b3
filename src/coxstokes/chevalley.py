"""Chevalley structure constants as integer tables, their exact checks, and ad.

Basis {H_{a_1},..,H_{a_l}} u {e_a : a in Delta}, normalized so that
B(e_a, e_{-a}) = 1.  Structure constants then satisfy
N(a,b)^2 = q(p+1)(a,a)/2 (root-string numbers p,q), which is irrational for
some short-root pairs, so exact values live in Q(sqrt d).

Signs follow the extraspecial-pair convention over the canonical root order:
extraspecial constants are positive, everything else is derived from the
two invariance identities

    x+y+z = 0           =>  N(x,y) = N(y,z) = N(z,x)
    a+b+c+d = 0 (generic) =>  N(a,b)N(c,d) + N(b,c)N(a,d) + N(c,a)N(b,d) = 0.

Integer encoding.  The build and its exact checks work on numpy integer
tables (``ChevalleyTables``), never on scalar objects:

- root sums as indices into the canonical root order, by an exact key
  lookup at every rank (``_root_sums``);
- the form as F*(a,b), F the lcm of the Gram-matrix denominators
  (1 for A, B, D, E; 2 for C, F4; 3 for G2);
- N(a,b) = (u + v*sqrt(d))/D as two integer tables u, v, where
  d = D = (long root length^2)/(short root length^2): 1 for A, D, E (so
  the constants are +-1), 2 for B, C, F4, 3 for G2.

Each stored table has the narrowest signed dtype that holds its magnitude
(``rootcore.working_dtype``).  By Chevalley's theorem the constants are
tiny integers: N^2 = q(p+1)(a,a)/2 with p + q <= 3 (Humphreys,
Introduction to Lie Algebras, section 25), so the coordinates, the form, u, v
and the root-string numbers q are int8 at every type, and the root
indices are int8 or int16 (n < 2^14 roots).  The tables are built a block
of rows at a time, with no n x n int64 intermediate, and every flat index
into them (a n + b) is formed in ``np.intp``.

The magnitude and Jacobi checks are always on and use integer arithmetic
only.  Each first bounds every magnitude it can reach, then runs in the
narrowest integer dtype that bound allows (``working_dtype``: int8,
int16, int32 or int64 for a bound below 2^6, 2^14, 2^30 or
INT_LIMIT = 2^62, half of each wrap point), so no product can wrap; a
bound at INT_LIMIT or above raises.  Every constant of A, D and E is +-1,
so there the checks run in int8.
Adjoint matrices (``ChevalleyAlgebra.ad``) are scattered from the same
tables, and representation matrices read N from them (``n_float``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Tuple

import numpy as np

from .rootcore import (
    InvariantViolation,
    Root,
    RootSystem,
    build_root_system,
    check_bound,
    working_dtype,
)


def _exact_div(num: int, den: int) -> int:
    if num % den:
        raise InvariantViolation(f"{num}/{den} leaves the integer encoding")
    return num // den


# -- integer tables ------------------------------------------------------------


@dataclass(frozen=True)
class ChevalleyTables:
    """One type's root data and structure constants as integer arrays.

    Root indices are positions in the canonical order ``rs.roots``.  Each
    array is read-only, in the narrowest signed dtype that holds its largest
    magnitude (``working_dtype``), so flat indices formed from the index
    tables are formed in ``np.intp``.
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

        Derived, not stored: a second n x n int8 table would add 86 KB over
        the 16 standard types (88,264 root pairs) to every process that
        keeps them, and 0.5 MB at B19.
        """
        return self.q[self.neg]

    def root(self, i: int) -> Root:
        return tuple(int(c) for c in self.roots[i])

    def n_float(self, a, b) -> np.ndarray:
        """N(a, b) as floats at root indices a, b (ints or index arrays).

        Each N is rational or a rational multiple of sqrt(surd), so this is
        u/D or (v/D) sqrt(surd), each quotient rounded once.
        """
        u, v = self.n_rat[a, b], self.n_surd[a, b]
        return np.where(v == 0, u / self.den, v / self.den * math.sqrt(self.surd))


# rows of an n x n table formed at once: each 8-byte block stays near 256 KB
_BLOCK = 2**15


def _row_blocks(n: int):
    step = max(1, _BLOCK // n)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def _root_sums(R: np.ndarray, base: int) -> Tuple[np.ndarray, np.ndarray]:
    """Negation and root-sum indices of the roots R (n, l), by an exact key lookup.

    A root's key is its coordinates read as base-``base`` digits in wrapping
    uint64 arithmetic.  Keys are linear mod 2^64, key(a + b) = key(a) +
    key(b), so a sorted search finds every true root sum: a miss is exact.
    A hit is accepted only when its coordinates are a + b, and the keys are
    checked pairwise distinct, so a hit is exact too and no key scale bounds
    the type.  neg is the same lookup of -a, checked as R[neg] = -R; a + b =
    0 is read from it (-2), and every other sum that is not a root is -1.
    """
    n, l = R.shape
    place = np.full(l, base, dtype=np.uint64) ** np.arange(l, dtype=np.uint64)
    keys = R.astype(np.uint64) @ place
    order = np.argsort(keys)
    sorted_keys = keys[order]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise InvariantViolation(f"two roots share a key in base {base}")

    def lookup(k: np.ndarray) -> np.ndarray:
        """The index of the root with key k, or -1."""
        pos = np.minimum(np.searchsorted(sorted_keys, k), n - 1)
        return np.where(sorted_keys[pos] == k, order[pos], -1)

    neg = lookup(0 - keys)
    if (neg < 0).any() or (R[neg] != -R).any():
        raise InvariantViolation("the root set is not closed under negation")
    index = working_dtype(n - 1, "root indices")
    sums = np.empty((n, n), dtype=index)
    coords = np.ascontiguousarray(R.T)
    for rows in _row_blocks(n):
        found = lookup(keys[rows, None] + keys)
        hit = found >= 0
        for x in coords:  # one coordinate of every root at a time
            hit &= x[found] == x[rows, None] + x
        sums[rows] = np.where(hit, found, -1)
    sums[np.arange(n), neg] = -2
    return neg.astype(index), sums


def _root_tables(rs: RootSystem):
    """Root coordinates, negation and root-sum indices (_root_sums), and the scaled form.

    The keys' base is 4 max |coordinate| + 1: every coordinate of a + b is
    a digit of that base, so distinct sums have distinct keys while
    base^l <= 2^64, and past that the lookup stays exact by its checks.
    The form is formed a block of rows at a time, in int64, and stored
    narrow: |(a, b)| <= max (a, a) on the positive definite form, which each
    block checks.
    """
    R = np.array(rs.roots, dtype=np.int64)
    n, l = R.shape
    coord = int(np.abs(R).max())
    G, form_den = rs.integer_form
    check_bound(l * l * coord * coord * int(np.abs(G).max()), "inner products")
    RG = R @ G
    top = int((RG * R).sum(axis=1).max())
    inner = np.empty((n, n), dtype=working_dtype(top, "inner products"))
    for rows in _row_blocks(n):
        block = RG[rows] @ R.T
        if np.abs(block).max() > top:
            raise InvariantViolation(f"{rs.type}: an inner product exceeds max (a, a) = {top}")
        inner[rows] = block
    # |a + b| <= 2 coord stays within the dtype that holds coord
    R = R.astype(working_dtype(coord, "root coordinates"))
    neg, sums = _root_sums(R, 4 * coord + 1)
    return R, neg, sums, inner, form_den


def _root_strings(sums: np.ndarray) -> np.ndarray:
    """Root-string numbers: q[i, j] = q means b + k a is a root for k = 1..q,
    for a = root i, b = root j, by iterated table lookups.

    sums is symmetric, so b + (k + 1) a = sums[i, b + k a] reads row i only,
    and each block of rows is counted on its own.  A root string has at
    most four roots (p + q <= 3), so q <= 3; a longer one raises.
    """
    q = np.zeros(sums.shape, dtype=working_dtype(3, "root strings"))
    for rows in _row_blocks(len(sums)):
        block = cur = sums[rows]
        for k in range(4):
            live = cur >= 0
            if not live.any():
                break
            if k == 3:
                raise InvariantViolation("a root string has more than four roots")
            q[rows] += live
            cur = np.where(live, np.take_along_axis(block, np.maximum(cur, 0), axis=1), -1)
    return q


def _sqrt_pairs(m: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """(u, v) with u + v sqrt(d) = sqrt(m) and u v = 0, entrywise."""
    u = np.rint(np.sqrt(m)).astype(np.int64)
    r = np.rint(np.sqrt(m // d)).astype(np.int64)
    rational = u * u == m
    surd = ~rational & (m % d == 0) & (d * r * r == m)
    if not (rational | surd).all():
        bad = int(m[~(rational | surd)][0])
        raise InvariantViolation(f"sqrt({bad}) is not in Z + Z sqrt({d})")
    return np.where(rational, u, 0), np.where(surd, r, 0)


def _exact_quotients(num: np.ndarray, den) -> np.ndarray:
    """num // den entrywise (den an array or one int), each division checked exact."""
    quo, rem = np.divmod(num, den)
    if rem.any():
        i = int(np.argmax(rem != 0))
        raise InvariantViolation(
            f"{num.flat[i]}/{np.broadcast_to(den, num.shape).flat[i]} leaves the integer encoding"
        )
    return quo


def build_tables(rs: RootSystem) -> ChevalleyTables:
    """Root tables and extraspecial-pair structure constants, unverified.

    The pairs a < b of positive roots with a + b = g a root are taken height
    by height of g, all g of one height at once.  Each g's first pair
    (a1, b1) is extraspecial: N = +sqrt(q(p+1)(a1,a1)/2).  Every other pair
    (a, b) follows from the quadruple a1 + b1 - a - b = 0:

        N(a1,b1) N(a,b) = -N(b1,-b) N(a1,-a) - N(-b,a1) N(b1,-a),

    whose right side reads only the triples of roots of lower height.  Each
    pair then fixes the twelve entries of its zero-sum triple (a, b, -g) and
    of the negative triple; distinct pairs fix disjoint entries.
    """
    R, neg, sums, inner, F = _root_tables(rs)
    n = len(R)
    diag = np.diagonal(inner).astype(np.int64)
    d = D = _exact_div(int(diag.max()), int(diag.min()))
    q = _root_strings(sums)
    # Chevalley: |u|, |v| <= D |N| <= top, as D^2 N^2 = q (p + 1) F(a, a) D^2 / 2F, p = q[-a, b]
    q_top = int(q.max())
    top = math.isqrt(q_top * (q_top + 1) * int(diag.max()) * D * D // (2 * F))
    height = R.sum(axis=1)
    pos = np.flatnonzero(height > 0)
    ia, ib = np.nonzero(sums[np.ix_(pos, pos)] >= 0)
    keep = ia < ib
    A, B = pos[ia[keep]], pos[ib[keep]]
    # root indices in intp: the flat indices a n + b below reach n^2
    neg_i = neg.astype(np.intp)
    G = sums[A, B].astype(np.intp)
    # by g, then a ascending: each g's first pair leads, and since the canonical
    # order is by height, each height is one run of pairs
    order = np.lexsort((A, G))
    A, B, G = A[order], B[order], G[order]
    lead = np.ones(len(G), dtype=bool)
    lead[1:] = G[1:] != G[:-1]
    first = np.flatnonzero(lead)[np.cumsum(lead) - 1]
    A1, B1 = A[first], B[first]
    m = _exact_quotients(
        q[A1, B1].astype(np.int64) * (q[neg_i[A1], B1] + 1) * diag[A1] * D * D, 2 * F
    )
    val = np.stack(_sqrt_pairs(m, d))  # (u, v) of each pair; final for the leading pairs

    # every other pair: its four factors (flat indices into the n x n tables),
    # and N(a1,b1), which is u or v sqrt(d), as the divisor of the u and v parts
    rest = np.flatnonzero(~lead)
    factors = np.stack([
        B1 * n + neg_i[B], A1 * n + neg_i[A], neg_i[B] * n + A1, B1 * n + neg_i[A]
    ])[:, rest]
    cu, cv = val[:, rest]
    rational = cv == 0
    divisor = np.where(rational, [cu, cu], [cv, d * cv])
    # the twelve entries that each pair's triple (a, b, -g) and its negative fix
    C = neg_i[G]
    rows = np.stack([A, B, C, B, C, A], axis=1)
    cols = np.stack([B, C, A, A, B, C], axis=1)
    entries = np.concatenate([rows * n + cols, neg_i[rows] * n + neg_i[cols]], axis=1)
    sign = np.array([1, 1, 1, -1, -1, -1, -1, -1, -1, 1, 1, 1])

    dtype = working_dtype(top, "structure constants")
    u = np.zeros(n * n, dtype=dtype)
    v = np.zeros(n * n, dtype=dtype)
    run = np.flatnonzero(np.diff(height[G], prepend=0, append=height[G][-1] + 1))
    at = np.searchsorted(rest, run)
    for lo, hi, r0, r1 in zip(run[:-1], run[1:], at[:-1], at[1:]):
        x, y, z, w = u[factors[:, r0:r1]].astype(np.int64)
        xs, ys, zs, ws = v[factors[:, r0:r1]].astype(np.int64)
        # products over D^2: x y = (x_u y_u + d x_v y_v, x_u y_v + x_v y_u)
        tu = x * y + z * w + d * (xs * ys + zs * ws)
        tv = x * ys + xs * y + z * ws + zs * w
        num = np.where(rational[r0:r1], [tu, tv], [tv, tu])
        val[:, rest[r0:r1]] = -_exact_quotients(num, divisor[:, r0:r1])
        if np.abs(val[:, lo:hi]).max() > top:
            raise InvariantViolation(f"{rs.type}: a structure constant passes D |N| <= {top}")
        u[entries[lo:hi]] = sign * val[0, lo:hi, None]
        v[entries[lo:hi]] = sign * val[1, lo:hi, None]
    u, v = u.reshape(n, n), v.reshape(n, n)
    for arr in (R, neg, sums, inner, u, v, q):
        arr.flags.writeable = False  # shared by the cached algebra
    return ChevalleyTables(R, neg, sums, inner, F, u, v, D, d, q)


# -- exact checks on the tables ---------------------------------------------------


def verify_magnitudes(t: ChevalleyTables):
    """N(a,b)^2 = q(p+1)(a,a)/2 on bracketable pairs, N = 0 elsewhere, N(-a,-b) = -N(a,b).

    Runs in the narrowest integer dtype that its magnitude bound allows
    (``working_dtype``).
    """
    d, D, F, neg = t.surd, t.den, t.form_den, t.neg
    top = max(int(np.abs(t.n_rat).max()), int(np.abs(t.n_surd).max()))
    q_top = int(t.q.max())  # p = q[neg] has the same entries
    dtype = working_dtype(
        max(2 * F * (1 + d) * top * top, q_top * (q_top + 1) * int(np.abs(t.inner).max()) * D * D),
        "N^2",
    )
    u, v, q, diag = (
        x.astype(dtype, copy=False) for x in (t.n_rat, t.n_surd, t.q, np.diagonal(t.inner))
    )
    p = q[neg]
    # D^2 N^2 = u^2 + d v^2 + 2uv sqrt(d), against D^2 q(p+1)(a,a)/2
    lhs = 2 * F * (u * u + d * v * v)
    rhs = q * (p + 1) * diag[:, None] * (D * D)
    bad = np.where(t.sums >= 0, (lhs != rhs) | (u * v != 0), (u != 0) | (v != 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvariantViolation(f"N^2 mismatch at roots {t.root(i)}, {t.root(j)}")
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
    sqrt(d) components separately, in the narrowest integer dtype that the
    magnitude bound allows (``working_dtype``).

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
    S, neg, d, D, F = t.sums, t.neg, t.surd, t.den, t.form_den
    n = len(neg)
    top = max(int(np.abs(t.n_rat).max()), int(np.abs(t.n_surd).max()))
    dtype = working_dtype(
        max(
            3 * F * (1 + d) * top * top + 3 * D * D * int(np.abs(t.inner).max()),
            6 * top * int(np.abs(t.roots).max()),
        ),
        "Jacobi",
    )
    u, v, R, inner = (x.astype(dtype, copy=False) for x in (t.n_rat, t.n_surd, t.roots, t.inner))
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

    # where S < 0 the matching N factor is 0; in intp once, since nn indexes by all of it
    Sc = np.maximum(S, 0, dtype=np.intp)

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
        rat[ni, :] += D * D * inner[:, i]
        rat[np.arange(n), neg] += D * D * inner[i]
        rat[:, ni] += D * D * inner[:, ni]
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

    def n_float(self, x: Root, y: Root) -> float:
        """N(x, y) for roots x, y as a float, read from the integer tables."""
        return float(self.tables.n_float(self._ridx[x], self._ridx[y]))

    def label(self, idx: int):
        return self.basis_labels[idx]

    def ad(self, terms: Mapping[Root, complex]) -> np.ndarray:
        """Adjoint matrix of sum c_a e_a (terms: root a -> c_a) on the full basis.

        Scattered from the tables: column H_k holds -c_a (a, a_k) at e_a,
        column e_b holds c_a N(a, b) at e_{a+b}, and column e_{-a} holds c_a a
        on the Cartan rows.  Each entry comes from one term, so no entry is
        summed, and N is ``ChevalleyTables.n_float``.
        """
        t, l = self.tables, self.rs.rank
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for root, c in terms.items():
            a = self._ridx[root]
            h = -t.inner[a, self._simple_idx]
            k = np.flatnonzero(h)
            out[l + a, k] = c * (h[k] / t.form_den)
            b = np.flatnonzero(t.n_rat[a] | t.n_surd[a])
            out[l + t.sums[a, b].astype(np.intp), l + b] = c * t.n_float(a, b)
            k = np.flatnonzero(t.roots[a])
            out[k, l + int(t.neg[a])] = c * t.roots[a, k]
        return out


@lru_cache(maxsize=None)
def build_chevalley(type_name: str) -> ChevalleyAlgebra:
    """Build (and exactly verify) the Chevalley algebra of one type, by name.

    One verified instance is cached per name.  A RootSystem is refused, not
    looked up by its type: a changed copy would get the standard algebra.
    """
    if not isinstance(type_name, str):
        raise TypeError(f"build_chevalley takes a type name, not {type(type_name).__name__}")
    return ChevalleyAlgebra(build_root_system(type_name))
