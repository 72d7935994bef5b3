import dataclasses
import random
from fractions import Fraction as Q

import pytest

from coxstokes.chevalley import build_chevalley
from coxstokes.rootcore import (
    AlgebraType,
    UnsupportedTypeError,
    build_root_system,
    diagram_involution,
    dual_data,
    highest_root_marks,
)
from rational_reference import fraction_root_system

ALL_TYPES = [
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
]


def test_parse_and_admissibility():
    assert AlgebraType.parse("a3") == AlgebraType("A", 3)
    assert str(AlgebraType.parse(" E8 ")) == "E8"
    for bad in ["A1", "B1", "D2", "E5", "E9", "F3", "G3", "H4", "x", "A"]:
        with pytest.raises(UnsupportedTypeError):
            AlgebraType.parse(bad)


def test_rank_one_rejected():
    with pytest.raises(UnsupportedTypeError):
        build_root_system("A1")


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cardinality_and_closure(name):
    rs = build_root_system(name)
    l, s = rs.rank, rs.coxeter_number
    assert len(rs.roots) == l * s
    assert len(rs.positive_roots) * 2 == len(rs.roots)
    rset = set(rs.roots)
    for r in rs.roots:
        assert tuple(-c for c in r) in rset
        cs = [c for c in r if c != 0]
        assert cs and (all(c > 0 for c in cs) or all(c < 0 for c in cs))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_marks_and_coxeter_number(name):
    rs = build_root_system(name)
    psi, marks, s = highest_root_marks(rs)
    assert marks[0] == 1
    assert s == 1 + sum(marks[1:])
    assert rs.height(psi) == s - 1
    assert psi == tuple(marks[1:])


@pytest.mark.parametrize("name", ALL_TYPES)
def test_exponents(name):
    rs = build_root_system(name)
    e, l, s = rs.exponents, rs.rank, rs.coxeter_number
    assert e[0] == 1 and e[-1] == s - 1
    assert all(e[i] + e[l - 1 - i] == s for i in range(l))


def test_known_data():
    a2 = build_root_system("A2")
    assert (len(a2.roots), a2.coxeter_number, a2.exponents) == (6, 3, (1, 2))
    assert a2.marks == (1, 1, 1)
    e8 = build_root_system("E8")
    assert (len(e8.roots), e8.coxeter_number) == (240, 30)
    assert e8.exponents == (1, 7, 11, 13, 17, 19, 23, 29)
    g2 = build_root_system("G2")
    assert g2.coxeter_number == 6 and set(g2.marks[1:]) == {3, 2}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_form_normalization_and_cartan_reconstruction(name):
    rs = build_root_system(name)
    assert rs.inner(rs.psi, rs.psi) == 2
    for i in range(rs.rank):
        for j in range(rs.rank):
            ai, aj = rs.simple_roots[i], rs.simple_roots[j]
            assert Q(2) * rs.inner(ai, aj) / rs.inner(aj, aj) == rs.cartan[i][j]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_weight_lattice_data(name):
    # the Cartan inverse read off G^{-1}, the scaled lengths and the Dynkin labels
    rs = build_root_system(name)
    l = rs.rank
    for i in range(l):
        row = [sum(rs.cartan_inv[i][k] * rs.cartan[k][j] for k in range(l)) for j in range(l)]
        assert row == [int(i == j) for j in range(l)]
        assert rs.to_dyn(rs.simple_roots[i]) == rs.cartan[i]
        assert Q(rs.simple_lengths[i], rs.length_den) == rs.form[i][i]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_dual_data(name):
    rs = build_root_system(name)
    dd = dual_data(rs)
    l = rs.rank
    # alpha_i(eps_j) = delta_ij and x0 = sum eps_j
    for i in range(l):
        for j in range(l):
            col = [dd.epsilon_basis[k][j] for k in range(l)]
            assert rs.pairing(rs.simple_roots[i], col) == int(i == j)
        assert rs.pairing(rs.simple_roots[i], dd.x0) == 1
    assert rs.pairing(rs.psi, dd.x0) == rs.coxeter_number - 1
    assert tuple(dd.x0) == tuple(
        sum(dd.epsilon_basis[k][j] for j in range(l)) for k in range(l)
    )


def test_an_r_coefficients():
    # r_i = i(n - i + 1)/2 for sl_{n+1}
    for n in (2, 3, 4, 5, 6):
        rs = build_root_system(f"A{n}")
        want = [Q(i * (n - i + 1), 2) for i in range(1, n + 1)]
        assert list(rs.r_coeffs) == want


@pytest.mark.parametrize("name", ALL_TYPES)
def test_nu_symmetry_of_r(name):
    rs = build_root_system(name)
    nu = diagram_involution(rs)
    l = rs.rank
    assert all(nu[nu[i] - 1] == i + 1 for i in range(l))
    # nu is an automorphism of the Dynkin diagram
    assert all(rs.cartan[nu[i] - 1][nu[j] - 1] == rs.cartan[i][j] for i in range(l) for j in range(l))
    assert all(rs.r_coeffs[i] == rs.r_coeffs[nu[i] - 1] for i in range(l))


@pytest.mark.parametrize("name", ALL_TYPES)
def test_toda_cross_terms_vanish(name):
    # for the affine simple roots alpha_0 = -psi, alpha_1..alpha_l and i != j,
    # alpha_j - alpha_i is neither a root nor zero, so [e_{-alpha_i}, e_{alpha_j}] = 0
    # and [E_-, E_+] is Cartan: -sum_i c_i^- c_i^+ H_{alpha_i}, the Toda identity
    t = build_chevalley(name).tables
    rs = build_root_system(name)
    index = {r: k for k, r in enumerate(rs.roots)}
    affine = [index[rs.alpha0]] + [index[a] for a in rs.simple_roots]
    for i in affine:
        for j in affine:
            if i != j:
                assert t.sums[t.neg[i], j] == -1, (t.root(i), t.root(j))


def test_diagram_involutions():
    assert diagram_involution(build_root_system("A4")) == (4, 3, 2, 1)
    assert diagram_involution(build_root_system("B3")) == (1, 2, 3)
    assert diagram_involution(build_root_system("D4")) == (1, 2, 3, 4)
    assert diagram_involution(build_root_system("D5")) == (1, 2, 3, 5, 4)
    assert diagram_involution(build_root_system("E6")) == (6, 2, 5, 4, 3, 1)
    assert diagram_involution(build_root_system("E7")) == (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("name", ALL_TYPES)
def test_pairing_matches_the_double_sum(name):
    # pairing sums in integers over the cached integer form; the definition is
    # the double sum over the Gram matrix, and the two must agree as Fractions
    rs = build_root_system(name)
    l, G = rs.rank, rs.form
    rng = random.Random(f"pairing:{name}")
    for _ in range(3):
        h = [Q(rng.randint(-60, 60), rng.randint(1, 24)) for _ in range(l)]
        for root in rs.roots + (rs.psi,):
            want = sum(Q(root[i]) * G[i][j] * h[j] for i in range(l) for j in range(l))
            got = rs.pairing(root, h)
            assert type(got) is Q and got == want, (root, h)
    weight = tuple(Q(rng.randint(-9, 9), 3) for _ in range(l))  # not a root
    want = sum(weight[i] * G[i][j] * h[j] for i in range(l) for j in range(l))
    assert rs.pairing(weight, h) == want
    assert rs.pairing(list(weight), [float(c) for c in h]) == sum(
        weight[i] * G[i][j] * Q(float(h[j])) for i in range(l) for j in range(l)
    )
    # a copy with another form does not read the original's cached rows
    doubled = dataclasses.replace(rs, form=tuple(tuple(2 * x for x in row) for row in G))
    assert doubled.pairing(rs.psi, h) == 2 * rs.pairing(rs.psi, h)


def _same(x, y):
    """Equal in value and in type, through nested tuples and frozensets."""
    if type(x) is not type(y):
        return False
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(_same, x, y))
    return x == y


@pytest.mark.parametrize("name", ALL_TYPES + ["A45", "B25", "C20", "D20"])
def test_integer_build_equals_the_fraction_build(name):
    # the Gram matrix, Cartan check and Gram inverse run in Python ints; every
    # field must be what the Fraction build gives, value and type alike
    rs, ref = build_root_system(name), fraction_root_system(name)
    for f in dataclasses.fields(rs):
        assert _same(getattr(rs, f.name), getattr(ref, f.name)), f.name
