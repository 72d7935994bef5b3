import cmath
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest

from coxstokes.characters import (
    CharacterScaleError,
    character_value,
    fundamental_characters,
    weight_pairing,
    weyl_dim,
)
from coxstokes.rootcore import build_root_system

KNOWN_DIMS = {
    "A2": [3, 3],
    "A3": [4, 6, 4],
    "B3": [7, 21, 8],
    "C3": [6, 14, 14],
    "D4": [8, 28, 8, 8],
    "G2": [7, 14],
    "F4": [52, 1274, 273, 26],
    "E6": [27, 78, 351, 2925, 351, 27],
}


@pytest.mark.parametrize("name", sorted(KNOWN_DIMS))
def test_fundamental_dimensions(name):
    rs = build_root_system(name)
    dims = [fundamental_characters(name, i + 1).dim for i in range(rs.rank)]
    assert dims == KNOWN_DIMS[name]


def _simple_coords(rs, weight_dyn):
    """A weight in simple-root coordinates through the exact Cartan inverse."""
    l = rs.rank
    return [sum(Q(weight_dyn[i]) * rs.cartan_inv[i][j] for i in range(l)) for j in range(l)]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "F4", "E6", "E8"])
def test_weyl_dim_matches_form_product(name):
    # reference: prod (lam+rho, alpha)/(rho, alpha) with the Fraction form
    rs = build_root_system(name)
    l = rs.rank
    rho = _simple_coords(rs, (1,) * l)
    lams = [tuple(int(i == j) for j in range(l)) for i in range(l)] + [tuple(range(l))]
    for lam in lams:
        lr = _simple_coords(rs, tuple(m + 1 for m in lam))
        want = Q(1)
        for a in rs.positive_roots:
            want *= rs.inner(lr, a) / rs.inner(rho, a)
        assert weyl_dim(rs, lam) == want


@pytest.mark.parametrize("name,index,zero_mult", [("E6", 2, 6), ("F4", 4, 2), ("E8", 8, 8)])
def test_zero_weight_multiplicity(name, index, zero_mult):
    # the adjoint E6 and E8 modules carry the rank at weight 0, the 26 of F4 carries 2
    mult = dict(fundamental_characters(name, index).weights)
    assert mult[(0,) * build_root_system(name).rank] == zero_mult


def test_a2_standard_weights():
    tb = fundamental_characters("A2", 1)
    assert tb.dim == 3
    assert len(tb.weights) == 3 and all(m == 1 for _, m in tb.weights)


def test_weyl_invariance_of_multiplicities():
    # s_i mu = mu - 2 (mu, a_i)/(a_i, a_i) a_i in the Fraction form, back to Dynkin labels
    rs = build_root_system("C3")
    tb = fundamental_characters("C3", 2)
    mult = dict(tb.weights)
    for w, m in tb.weights:
        mu = _simple_coords(rs, w)
        for i, a in enumerate(rs.simple_roots):
            c = 2 * rs.inner(mu, a) / rs.inner(a, a)
            image = rs.to_dyn([x - c * y for x, y in zip(mu, a)])
            assert all(x.denominator == 1 for x in image)
            assert mult[tuple(int(x) for x in image)] == m


def test_dimension_cap():
    # E8's fourth fundamental representation is far beyond desk scale
    with pytest.raises(CharacterScaleError):
        fundamental_characters("E8", 4)


def test_torus_values_a2():
    rs = build_root_system("A2")
    y = tuple(c / 3 for c in rs.r_coeffs)   # y = x0/s at m = 0
    for i in (1, 2):
        t = character_value(rs, fundamental_characters("A2", i), y)
        assert abs(t) < 1e-12
    at_zero = [
        character_value(rs, fundamental_characters("A2", i), (Q(0), Q(0))) for i in (1, 2)
    ]
    assert all(abs(v - 3) < 1e-12 for v in at_zero)


def _exact_character_value(rs, table, y) -> complex:
    """Reference evaluator: the weight-by-weight sum with exact pairings mu(y)."""
    total = 0j
    for w, m in table.weights:
        total += m * cmath.exp(2j * cmath.pi * float(weight_pairing(rs, w, y)))
    return total


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
def test_character_value_matches_exact_pairing(name):
    # the cached float pairing matrix against the exact loop at the identity,
    # the principal element x0/s and seeded rational torus points
    rs = build_root_system(name)
    s = rs.coxeter_number
    rng = np.random.default_rng(5)
    identity = (Q(0),) * rs.rank
    principal = tuple(c / s for c in rs.x0_coords)
    ys = [identity, principal] + [
        tuple(Q(int(x), 12) for x in rng.integers(-12, 13, size=rs.rank)) for _ in range(5)
    ]
    for i in range(rs.rank):
        tb = fundamental_characters(name, i + 1)
        for y in ys:
            assert abs(character_value(rs, tb, y) - _exact_character_value(rs, tb, y)) < 1e-12
        assert abs(character_value(rs, tb, identity) - tb.dim) < 1e-12
        # Kostant: at the principal element every character is 0 or +-1
        v = character_value(rs, tb, principal)
        assert min(abs(v - k) for k in (-1, 0, 1)) < 1e-12


def _ext_trace(g: np.ndarray, k: int) -> complex:
    idx = list(combinations(range(g.shape[0]), k))
    return sum(np.linalg.det(g[np.ix_(r, r)]) for r in idx)


def test_a3_exterior_power_oracle():
    # character values at a torus point vs traces of exterior powers of the
    # standard-representation torus matrix
    rs = build_root_system("A3")
    rng = np.random.default_rng(1)
    y = [Q(int(x), 12) for x in rng.integers(-6, 7, size=3)]
    tb1 = fundamental_characters("A3", 1)
    diag = np.diag(
        [np.exp(2j * np.pi * float(weight_pairing(rs, w, y))) for w, _ in tb1.weights]
    )
    for j in (1, 2, 3):
        via_table = character_value(rs, fundamental_characters("A3", j), y)
        via_minors = _ext_trace(diag, j)
        assert abs(via_table - via_minors) < 1e-12
