import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharpopt.core import (
    IDENTITY,
    DiagPrecond,
    Schedule,
    as_vector,
    constant,
    dot,
    inverse_sqrt,
    l2_norm,
    precond_solve,
)


def test_as_vector_coerces_scalars_and_lists():
    assert as_vector(3.0).shape == (1,)
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.tolist() == [1.0, 2.0, 3.0]


def test_as_vector_rejects_bad_shapes_and_nonfinite():
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([1.0, 2.0], dim=3)


@pytest.mark.parametrize("bad", [
    np.array([1.0, np.nan]),
    np.array([np.inf, 1.0]),
    np.array([1.0, -np.inf]),
    np.array([[1.0, 2.0]]),
    np.empty(0),
])
def test_as_vector_rejects_nonfinite_2d_and_empty_float_arrays(bad):
    with pytest.raises(ValueError):
        as_vector(bad)


def test_as_vector_checks_the_dimension_of_a_float_vector():
    with pytest.raises(ValueError):
        as_vector(np.ones(3), dim=2)
    assert as_vector(np.ones(2), dim=2).shape == (2,)


def test_as_vector_returns_a_float_vector_itself():
    v = np.array([1.5, -2.0])
    assert as_vector(v) is v
    strided = np.arange(6.0)[::2]
    assert as_vector(strided) is strided


def test_as_vector_coerces_lists_and_int_arrays():
    ints = np.array([1, 2])
    v = as_vector(ints)
    assert v is not ints and v.dtype == np.float64 and v.tolist() == [1.0, 2.0]
    assert as_vector([3, 4]).dtype == np.float64
    assert as_vector(np.float32(2.5)).tolist() == [2.5]


def test_norms_and_dot_hand_values():
    assert dot(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0
    assert l2_norm([3.0, 4.0]) == 5.0
    with pytest.raises(ValueError):
        dot(np.ones(2), np.ones(3))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
def test_l2_norm_matches_numpy(xs):
    v = np.array(xs)
    assert math.isclose(l2_norm(v), float(np.linalg.norm(v)), rel_tol=1e-12, abs_tol=1e-12)


def test_identity_preconditioner_is_a_bitwise_noop():
    m = np.array([1.25, -3.5, 0.0])
    assert precond_solve(IDENTITY, m) is m


def test_diag_preconditioner_solve_and_apply():
    b = DiagPrecond(np.array([2.0, 4.0]))
    m = np.array([6.0, 8.0])
    assert precond_solve(b, m).tolist() == [3.0, 2.0]


def test_diag_preconditioner_requires_positive_entries():
    with pytest.raises(ValueError):
        DiagPrecond(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        DiagPrecond(np.array([-1.0, 2.0]))


def test_diag_preconditioner_keeps_a_float_array_and_lets_nan_through():
    d = np.array([2.0, np.nan])
    assert DiagPrecond(d).diag is d  # a NaN is finite_rows' to catch, row by row
    converted = DiagPrecond([1, 2]).diag
    assert converted.dtype == np.float64 and converted.tolist() == [1.0, 2.0]


def test_schedule_values():
    assert constant(5.0).value_at(1) == 5.0
    assert constant(5.0).value_at(100) == 5.0
    s = inverse_sqrt(2.0)
    assert s.value_at(1) == 2.0
    assert s.value_at(4) == 1.0
    assert math.isclose(s.value_at(2), 2.0 / math.sqrt(2.0))


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule("linear", 1.0)
    with pytest.raises(ValueError):
        Schedule("constant", -1.0)
    with pytest.raises(ValueError):
        Schedule("constant", math.inf)
    with pytest.raises(ValueError):
        constant(1.0).value_at(0)
    # a zero base is legal: it expresses a disabled radius
    assert constant(0.0).value_at(3) == 0.0
