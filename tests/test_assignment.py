import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from coxstokes import steinberg
from coxstokes.assignment import linear_assignment
from coxstokes.rootcore import build_root_system

REGISTERED = ("A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "D4", "D5", "G2", "F4", "E6")


def assert_optimal_like_scipy(cost):
    """Every matrix: the rows are scipy's, and the sum is scipy's optimal sum.

    The sums are exact (fsum), so equally optimal assignments that choose
    other columns of tied rows give the same value.  Both solvers round in
    their dual updates, so where two sums lie closer than that rounding
    either may come out lower: 2 ulps of 1e6 in one of 20,000 hypothesis
    float matrices (scipy's the higher), and up to 1.6 n ulps over 10,000
    seeded matrices of 1e15 + steps.  The bound is 4 n ulps of the largest
    finite entry.
    """
    rows, cols = linear_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
    assert np.array_equal(rows, ref_rows)
    assert sorted(cols.tolist()) == list(range(len(cost)))
    got, want = (math.fsum(cost[ref_rows, c].tolist()) for c in (cols, ref_cols))
    ulp = np.spacing(np.abs(cost[np.isfinite(cost)]).max(initial=0.0))
    assert abs(got - want) <= 4 * len(cost) * ulp
    return cols, ref_cols


def assert_same_as_scipy(cost):
    """A tie-free matrix: the permutation is scipy's."""
    cols, ref_cols = assert_optimal_like_scipy(cost)
    assert np.array_equal(cols, ref_cols)


def square(dtype, elements):
    return st.integers(1, 30).flatmap(lambda n: arrays(dtype, (n, n), elements=elements))


@settings(max_examples=300, deadline=None)
@given(square(np.float64, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_float_matrices_match_scipy(cost):
    assert_optimal_like_scipy(cost)


@settings(max_examples=300, deadline=None)
@given(square(np.int64, st.integers(0, 3)))
def test_tie_heavy_integer_matrices_match_scipy(cost):
    assert_optimal_like_scipy(cost.astype(float))


def test_duplicate_rows_and_inf_entries_match_scipy():
    rng = np.random.default_rng(7)
    for n in (2, 5, 12, 31):
        base = rng.random((n // 2 + 1, n))
        cost = base[rng.integers(0, len(base), n)]
        assert_optimal_like_scipy(cost)
        cost[rng.random((n, n)) < 0.2] = np.inf
        np.fill_diagonal(cost, rng.random(n))    # keeps the matrix feasible
        assert_optimal_like_scipy(cost)


def test_near_ties_at_large_magnitude_match_scipy():
    # entries one rounding step apart at 1e15, where the dual updates round
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        steps = rng.integers(0, 5, (n, n)) * rng.choice([0.1, 0.3, 0.7, 1.0], (n, n))
        assert_optimal_like_scipy(1e15 + steps)


def test_tie_free_matrices_give_scipys_permutation():
    # uniform entries tie with probability 0, so the optimum is unique; half
    # the matrices lose entries to inf, with the diagonal kept feasible
    rng = np.random.default_rng(3)
    searched = 0
    for k in range(400):
        n = int(rng.integers(1, 31))
        cost = rng.random((n, n))
        if k % 2:
            cost[rng.random((n, n)) < 0.3] = np.inf
            np.fill_diagonal(cost, rng.random(n))
        searched += len(set(cost.argmin(axis=1))) < n
        assert_same_as_scipy(cost)
    assert searched > 300    # most need the searches, not the certificate


def test_empty_and_single_entry():
    assert_same_as_scipy(np.zeros((0, 0)))
    assert_same_as_scipy(np.array([[2.5]]))


@pytest.mark.parametrize("name", REGISTERED)
def test_spectral_check_cost_matrices_match_scipy(name, monkeypatch):
    # every matrix semisimple_spectrum_check assigns, its last run-time caller:
    # at a regular point each target's nearest eigenvalue is its own, so the
    # certificate settles the matrix, and the eigenvalue residual is the
    # largest cost of scipy's assignment
    seen = []

    def recording(cost):
        seen.append(np.array(cost))
        return linear_assignment(cost)

    monkeypatch.setattr(steinberg, "linear_assignment", recording)
    l = build_root_system(name).rank
    regular = 0
    for m in ([Q(1, 7)] * l, [Q(k + 1, 7 * k + 10) for k in range(l)]):
        chk = steinberg.semisimple_spectrum_check(steinberg.stokes_from_asymptotics(name, m))
        assert chk.ok and len(seen) == regular + chk.regular
        if chk.regular:
            regular += 1
            ri, ci = linear_sum_assignment(seen[-1])
            assert chk.eigenvalue_residual == float(seen[-1][ri, ci].max())
    # the 26-dim F4 representation has the zero weight twice: never regular
    assert (regular > 0) == (name != "F4")
    for cost in seen:
        assert len(set(cost.argmin(axis=1))) == len(cost)
        assert_same_as_scipy(cost)


@pytest.mark.parametrize(
    "cost",
    [
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[1.0, -np.inf], [0.0, 1.0]]),
        np.array([[np.inf, np.inf], [0.0, 1.0]]),
        np.array([[np.inf]]),
    ],
    ids=["nan", "minus-inf", "infeasible-row", "infeasible-1x1"],
)
def test_invalid_and_infeasible_raise_like_scipy(cost):
    with pytest.raises(ValueError):
        linear_sum_assignment(cost)
    with pytest.raises(ValueError):
        linear_assignment(cost)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_non_square_input_raises(shape):
    with pytest.raises(ValueError, match="square"):
        linear_assignment(np.zeros(shape))
