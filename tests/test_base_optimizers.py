import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharpopt.base_optimizers import (
    BaseOptConfig,
    BaseOptState,
    apply_update,
    compute_direction,
)
from sharpopt.core import IDENTITY


def test_sgd_direction_is_the_gradient_bitwise():
    state = BaseOptState(dim=3)
    g = np.array([0.1, -2.0, 7.5])
    m, b = compute_direction(state, BaseOptConfig(kind="sgd"), g)
    assert np.array_equal(m, g)
    assert b is IDENTITY


def test_sgdm_accumulates_without_dampening():
    cfg = BaseOptConfig(kind="sgdm", momentum_coeff=0.9)
    state = BaseOptState(dim=2)
    g1 = np.array([1.0, -1.0])
    g2 = np.array([0.5, 0.5])
    m1, _ = compute_direction(state, cfg, g1)
    m2, _ = compute_direction(state, cfg, g2)
    assert np.array_equal(m1, g1)
    # m2 = 0.9 * g1 + g2, no (1 - coeff) factor on the fresh gradient
    assert np.allclose(m2, 0.9 * g1 + g2, rtol=0, atol=0)


def test_sgdm_with_constant_gradient_grows_toward_the_geometric_limit():
    cfg = BaseOptConfig(kind="sgdm", momentum_coeff=0.5)
    state = BaseOptState(dim=1)
    g = np.array([1.0])
    m = None
    for _ in range(30):
        m, _ = compute_direction(state, cfg, g)
    assert abs(m[0] - 2.0) < 1e-8  # 1 / (1 - 0.5)


def test_adam_first_step_hand_values():
    cfg = BaseOptConfig(kind="adam", beta1=0.9, beta2=0.999, eps_adam=1e-8)
    state = BaseOptState(dim=2)
    g = np.array([2.0, -0.5])
    m, b = compute_direction(state, cfg, g)
    # bias correction makes the first step's m_hat = g, v_hat = g^2
    assert np.allclose(m, g, rtol=1e-12)
    assert np.allclose(b.diag, np.abs(g) + 1e-8, rtol=1e-12)
    # preconditioned direction is then ~sign(g)
    step = m / b.diag
    assert np.allclose(step, np.sign(g), rtol=1e-7)


def test_adam_second_step_matches_recurrence():
    cfg = BaseOptConfig(kind="adam", beta1=0.9, beta2=0.999, eps_adam=1e-8)
    state = BaseOptState(dim=1)
    g1, g2 = np.array([1.0]), np.array([3.0])
    compute_direction(state, cfg, g1)
    m, b = compute_direction(state, cfg, g2)
    m_raw = 0.9 * (0.1 * 1.0) + 0.1 * 3.0
    v_raw = 0.999 * (0.001 * 1.0) + 0.001 * 9.0
    m_hat = m_raw / (1 - 0.9**2)
    v_hat = v_raw / (1 - 0.999**2)
    assert np.allclose(m, [m_hat], rtol=1e-14)
    assert np.allclose(b.diag, [np.sqrt(v_hat) + 1e-8], rtol=1e-14)


def test_apply_update_identity_is_exact_subtraction():
    w = np.array([1.0, 2.0])
    m = np.array([0.25, -0.5])
    out = apply_update(w, 2.0, m, IDENTITY)
    assert np.array_equal(out, w - 2.0 * m)


def test_apply_update_rejects_nonfinite_step():
    with pytest.raises(ValueError):
        apply_update(np.ones(2), np.inf, np.ones(2), IDENTITY)


def test_states_do_not_share_buffers():
    cfg = BaseOptConfig(kind="sgdm")
    s1, s2 = BaseOptState(dim=1), BaseOptState(dim=1)
    compute_direction(s1, cfg, np.array([1.0]))
    assert s2.momentum_buf[0] == 0.0
    assert s1.step_count == 1 and s2.step_count == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "rmsprop"},
        {"momentum_coeff": 1.0},
        {"momentum_coeff": -0.1},
        {"beta1": 1.0},
        {"beta2": -0.5},
        {"eps_adam": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        BaseOptConfig(**kwargs)


def test_config_rejects_a_nan_adam_epsilon():
    with pytest.raises(ValueError):
        BaseOptConfig(eps_adam=float("nan"))


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=6))
def test_adam_first_direction_is_elementwise_bounded(gs):
    # m_hat / (sqrt(v_hat) + eps) = g / (|g| + eps), magnitude below 1
    g = np.array(gs)
    state = BaseOptState(dim=g.size)
    m, b = compute_direction(state, BaseOptConfig(kind="adam"), g)
    assert np.all(np.abs(m / b.diag) <= 1.0)
