"""Exact scalar arithmetic: small rational linear algebra and quadratic surds.

Root-system data is pure rational, but a basis normalized so that the
invariant form pairs opposite root vectors to 1 forces structure constants
of the form q*sqrt(d) (q rational, d in {1,2,3} depending on the algebra).
``Sq`` implements exact arithmetic in Q(sqrt(d)).  The Chevalley build and
its checks do not use it: they run on integer tables (see ``chevalley``).
``Sq`` serves the element API (``nval``, ``bracket``, ``ad_dense``) and the
exact strings of the structure-constant JSON export.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import List, Sequence, Tuple

Vector = Tuple[Q, ...]
Matrix = List[List[Q]]


def qvec(xs: Sequence) -> Vector:
    return tuple(Q(x) for x in xs)


def mat_vec(A: Sequence[Sequence[Q]], v: Sequence[Q]) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in A)


def mat_mul(A: Sequence[Sequence[Q]], B: Sequence[Sequence[Q]]) -> Matrix:
    n, m, p = len(A), len(B), len(B[0])
    return [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def mat_inv(A: Sequence[Sequence[Q]]) -> Matrix:
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(A)
    M = [[Q(A[i][j]) for j in range(n)] + [Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        if M[i][i] == 0:
            for k in range(i + 1, n):
                if M[k][i] != 0:
                    M[i], M[k] = M[k], M[i]
                    break
        piv = M[i][i]
        if piv == 0:
            raise ValueError("singular matrix")
        M[i] = [x / piv for x in M[i]]
        for k in range(n):
            if k != i and M[k][i] != 0:
                f = M[k][i]
                M[k] = [M[k][j] - f * M[i][j] for j in range(2 * n)]
    return [row[n:] for row in M]


def squarefree_split(n: int) -> Tuple[int, int]:
    """n = u^2 * d with d squarefree; returns (u, d). Requires n > 0."""
    u, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        u *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1
    return u, d * n


class Sq:
    """An element a + b*sqrt(d) of Q(sqrt d), with d squarefree (d=1 means Q)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 1):
        self.a = Q(a)
        self.b = Q(b)
        if d == 1 and self.b != 0:  # sqrt(1) folds into the rational part
            self.a += self.b
            self.b = Q(0)
        self.d = 1 if self.b == 0 else d

    @staticmethod
    def sqrt(q) -> "Sq":
        """Exact square root of a positive rational, as an element of Q(sqrt d)."""
        q = Q(q)
        if q < 0:
            raise ValueError("negative radicand")
        if q == 0:
            return Sq(0)
        un, dn = squarefree_split(q.numerator)
        ud, dd = squarefree_split(q.denominator)
        # sqrt(q) = (un/(ud*dd)) * sqrt(dn*dd)
        return Sq(0, Q(un, ud * dd), dn * dd)

    def _coerce(self, other) -> "Sq":
        if isinstance(other, Sq):
            return other
        if isinstance(other, (int, Q)):
            return Sq(other)
        return NotImplemented

    @staticmethod
    def _numeric(other):
        """Inexact scalars degrade Sq arithmetic to float/complex."""
        if isinstance(other, complex) and not isinstance(other, float):
            return complex
        if isinstance(other, float):
            return float
        return None

    def _join(self, other: "Sq") -> int:
        if self.d == 1:
            return other.d
        if other.d == 1 or other.d == self.d:
            return self.d
        raise ValueError(f"incompatible surds sqrt({self.d}) and sqrt({other.d})")

    def __add__(self, other):
        num = self._numeric(other)
        if num is not None:
            return num(self) + other
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._join(o)
        return Sq(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return Sq(-self.a, -self.b, self.d)

    def __sub__(self, other):
        num = self._numeric(other)
        if num is not None:
            return num(self) - other
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        num = self._numeric(other)
        if num is not None:
            return num(self) * other
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        d = self._join(o)
        return Sq(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "Sq":
        nrm = self.a * self.a - self.d * self.b * self.b
        if nrm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return Sq(self.a / nrm, -self.b / nrm, self.d)

    def __truediv__(self, other):
        num = self._numeric(other)
        if num is not None:
            return num(self) / other
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.a == o.a and self.b == o.b and (self.b == 0 or self.d == o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __complex__(self):
        return complex(float(self))

    def rational(self) -> Q:
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        return self.a

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"
