from fractions import Fraction as Q

import pytest

from coxstokes.scalars import int_inverse, mat_vec


def test_exact_linalg():
    A = [[2, 1], [1, 3]]
    X, d = int_inverse(A)
    assert [[sum(a * x for a, x in zip(row, col)) for col in zip(*X)] for row in A] == [[d, 0], [0, d]]
    Ainv = [[Q(x, d) for x in row] for row in X]
    assert list(mat_vec(Ainv, [Q(1), Q(0)])) == [Q(3, 5), Q(-1, 5)]
    with pytest.raises(ValueError):
        int_inverse([[1, 2], [2, 4]])


def test_int_inverse_pivots_past_a_zero():
    # the leading entry is 0, so elimination must swap rows; d is det A up to sign
    A = [[0, 1, 2], [1, 0, 3], [4, -3, 8]]
    X, d = int_inverse(A)
    assert abs(d) == 2
    assert [[sum(a * x for a, x in zip(row, col)) for col in zip(*X)] for row in A] == [
        [d * (i == j) for j in range(3)] for i in range(3)
    ]
