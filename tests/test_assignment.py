import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from coxstokes import spectrum
from coxstokes.assignment import linear_assignment
from coxstokes.chevalley import build_chevalley
from coxstokes.cli import STANDARD_TYPES
from coxstokes.coxeter import bipartition, coxeter_plane


def assert_same_as_scipy(cost):
    rows, cols = linear_assignment(cost)
    ref_rows, ref_cols = linear_sum_assignment(cost)
    assert rows.dtype == ref_rows.dtype and cols.dtype == ref_cols.dtype
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(cols, ref_cols)


def square(dtype, elements):
    return st.integers(1, 30).flatmap(lambda n: arrays(dtype, (n, n), elements=elements))


@settings(max_examples=300, deadline=None)
@given(square(np.float64, st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_float_matrices_match_scipy(cost):
    assert_same_as_scipy(cost)


@settings(max_examples=300, deadline=None)
@given(square(np.int64, st.integers(0, 3)))
def test_tie_heavy_integer_matrices_match_scipy(cost):
    assert_same_as_scipy(cost.astype(float))


def test_duplicate_rows_and_inf_entries_match_scipy():
    rng = np.random.default_rng(7)
    for n in (2, 5, 12, 31):
        base = rng.random((n // 2 + 1, n))
        cost = base[rng.integers(0, len(base), n)]
        assert_same_as_scipy(cost)
        cost[rng.random((n, n)) < 0.2] = np.inf
        np.fill_diagonal(cost, rng.random(n))    # keeps the matrix feasible
        assert_same_as_scipy(cost)


def test_near_ties_at_large_magnitude_match_scipy():
    # entries one rounding step apart at 1e15: the dual updates round, some v
    # rise above 0, and the row-by-row certificate must stand aside
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        steps = rng.integers(0, 5, (n, n)) * rng.choice([0.1, 0.3, 0.7, 1.0], (n, n))
        assert_same_as_scipy(1e15 + steps)


def test_empty_and_single_entry():
    assert_same_as_scipy(np.zeros((0, 0)))
    assert_same_as_scipy(np.array([[2.5]]))


@pytest.mark.parametrize("name", STANDARD_TYPES)
def test_spectral_check_cost_matrices_match_scipy(name, monkeypatch):
    # every matrix ad_spectrum and match_plane assign, candidates and polish alike
    seen = []

    def recording(cost):
        seen.append(np.array(cost))
        return linear_assignment(cost)

    monkeypatch.setattr(spectrum, "linear_assignment", recording)
    alg = build_chevalley(name)
    sr = spectrum.ad_spectrum(spectrum.build_e_plus(alg))
    spectrum.match_plane(sr, coxeter_plane(alg.rs, bipartition(alg.rs)))
    assert len(seen) >= 3
    for cost in seen:
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
