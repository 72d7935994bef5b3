from fractions import Fraction as Q

import pytest

from coxstokes.scalars import Sq, mat_inv, mat_mul, mat_vec, squarefree_split


def test_squarefree_split():
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(12) == (2, 3)
    assert squarefree_split(18) == (3, 2)
    assert squarefree_split(49) == (7, 1)


def test_sq_sqrt():
    assert Sq.sqrt(Q(1, 4)) == Sq(Q(1, 2))
    v = Sq.sqrt(Q(4, 3))
    assert v == Sq(0, Q(2, 3), 3)
    assert v * v == Sq(Q(4, 3))
    assert Sq.sqrt(0) == Sq(0)
    with pytest.raises(ValueError):
        Sq.sqrt(-1)


def test_sq_field_ops():
    a = Sq(Q(1, 2), Q(1, 3), 2)
    b = Sq(2, -1, 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == Sq(1)
    one = Sq(0, 1, 2) * Sq(0, Q(1, 2), 2)
    assert one == Sq(1) and one.rational() == 1
    with pytest.raises(ValueError):
        Sq(0, 1, 2) * Sq(0, 1, 3)
    assert abs(float(Sq(0, 1, 2)) - 2**0.5) < 1e-15
    # sqrt(1) folds into the rational part
    assert Sq(0, Q(3), 1) == Sq(3)


def test_sq_numeric_degradation():
    assert isinstance(0.5 * Sq(2), float)
    assert isinstance((1 + 1j) * Sq(2), complex)
    assert abs(complex(Sq(0, 1, 3)) - 3**0.5) < 1e-15


def test_exact_linalg():
    A = [[Q(2), Q(1)], [Q(1), Q(3)]]
    Ainv = mat_inv(A)
    assert mat_mul(A, Ainv) == [[Q(1), Q(0)], [Q(0), Q(1)]]
    assert list(mat_vec(Ainv, [Q(1), Q(0)])) == [Q(3, 5), Q(-1, 5)]
    with pytest.raises(ValueError):
        mat_inv([[Q(1), Q(2)], [Q(2), Q(4)]])
