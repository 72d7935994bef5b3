from fractions import Fraction as Q

import pytest

from coxstokes.scalars import mat_inv, mat_vec


def test_exact_linalg():
    A = [[Q(2), Q(1)], [Q(1), Q(3)]]
    Ainv = mat_inv(A)
    assert [mat_vec(A, col) for col in zip(*Ainv)] == [(Q(1), Q(0)), (Q(0), Q(1))]
    assert list(mat_vec(Ainv, [Q(1), Q(0)])) == [Q(3, 5), Q(-1, 5)]
    with pytest.raises(ValueError):
        mat_inv([[Q(1), Q(2)], [Q(2), Q(4)]])
