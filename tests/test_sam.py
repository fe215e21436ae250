"""Stepping rules: hand values, mode equivalences, and composition order."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharpopt.base_optimizers import BaseOptConfig, BaseOptState
from sharpopt.core import constant
from sharpopt.objectives import FULL_BATCH, BatchSpec, Objective, Quadratic, ToyLandscape
from sharpopt.sam import (
    SamConfig,
    clip_to_norm,
    gamma_coefficients,
    perturb,
    sharpness_estimate,
    step,
    step_sgd_wsam,
    wsam_loss,
)

UNIT_QUAD = Quadratic(a=(1.0, 1.0), centers=[(0.0, 0.0)])


def cfg_for(mode, alpha, rho=0.0, gamma=0.0, **kw):
    return SamConfig(alpha_schedule=constant(alpha), mode=mode, rho=rho, gamma=gamma, **kw)


# --- building blocks ---------------------------------------------------------

def test_gamma_coefficients_hand_values():
    assert gamma_coefficients(0.0) == (0.0, 1.0)
    assert gamma_coefficients(0.5) == (1.0, 0.0)
    adv, clean = gamma_coefficients(0.6)
    assert math.isclose(adv, 1.5) and math.isclose(clean, -0.5)
    with pytest.raises(ValueError):
        gamma_coefficients(1.0)


@given(st.floats(0.0, 0.99))
def test_gamma_coefficients_sum_to_one(gamma):
    adv, clean = gamma_coefficients(gamma)
    assert math.isclose(adv + clean, 1.0, rel_tol=0, abs_tol=1e-9)


def test_blended_gradient_hand_value():
    adv, clean = gamma_coefficients(0.6)
    h = adv * np.array([2.0, 0.0]) + clean * np.array([1.0, 0.0])
    assert np.allclose(h, [2.5, 0.0], rtol=0, atol=1e-15)


def test_perturb_points_along_the_normalized_gradient():
    delta = perturb(np.zeros(2), np.array([3.0, 4.0]), rho_t=1.0, eps=1e-12)
    assert np.allclose(delta, [0.6, 0.8], rtol=1e-9)
    assert np.linalg.norm(delta) <= 1.0


def test_perturb_adaptive_hand_value():
    # w^2 * g scaled by || |w| * g ||: w=(2,1), g=(1,1) -> (4,1)/sqrt(5)
    delta = perturb(np.array([2.0, 1.0]), np.array([1.0, 1.0]), rho_t=1.0, eps=1e-12, adaptive=True)
    assert np.allclose(delta, [4.0 / math.sqrt(5), 1.0 / math.sqrt(5)], rtol=1e-9)


def test_perturb_zero_gradient_stays_put():
    delta = perturb(np.ones(3), np.zeros(3), rho_t=0.5, eps=1e-12)
    assert np.allclose(delta, 0.0, atol=1e-9)


def test_perturb_validation():
    with pytest.raises(ValueError):
        perturb(np.ones(2), np.ones(2), rho_t=-1.0, eps=1e-12)
    with pytest.raises(ValueError):
        perturb(np.ones(2), np.ones(2), rho_t=1.0, eps=0.0)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
    st.floats(0.0, 10.0),
)
def test_perturb_norm_never_exceeds_rho(gs, rho):
    g = np.array(gs)
    delta = perturb(np.zeros(g.size), g, rho_t=rho, eps=1e-12)
    assert np.linalg.norm(delta) <= rho + 1e-12


def test_clip_to_norm():
    g = np.array([3.0, 4.0])
    assert clip_to_norm(g, None) is g
    assert clip_to_norm(g, 10.0) is g
    clipped = clip_to_norm(g, 1.0)
    assert math.isclose(np.linalg.norm(clipped), 1.0, rel_tol=1e-12)
    assert np.allclose(clipped, [0.6, 0.8])
    with pytest.raises(ValueError):
        clip_to_norm(g, 0.0)


def test_sharpness_estimate_hand_value():
    # L(1.1, 0) - L(1, 0) on the unit quadratic
    est = sharpness_estimate(UNIT_QUAD, np.array([1.0, 0.0]), rho_t=0.1)
    assert math.isclose(est, 0.105, rel_tol=0, abs_tol=1e-9)


def test_wsam_loss_hand_value():
    val = wsam_loss(UNIT_QUAD, np.array([1.0, 0.0]), rho_t=0.1, gamma=0.6)
    assert math.isclose(val, 0.5 + 1.5 * 0.105, rel_tol=0, abs_tol=1e-9)
    with pytest.raises(ValueError):
        wsam_loss(UNIT_QUAD, np.array([1.0, 0.0]), gamma=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for("warped", 1.0)
    with pytest.raises(ValueError):
        cfg_for("sam", 1.0, rho=-1.0)
    with pytest.raises(ValueError):
        cfg_for("wsam", 1.0, gamma=1.0)
    with pytest.raises(ValueError):
        cfg_for("sam", 1.0, clip_norm=0.0)


@pytest.mark.parametrize("rho", [math.inf, -1.0])
def test_rho_obeys_the_schedule_rule_beside_an_explicit_schedule(rho):
    with pytest.raises(ValueError, match="schedule base must be a finite nonnegative real"):
        SamConfig(alpha_schedule=constant(1.0), rho=rho, rho_schedule=constant(0.1))


# --- step outputs ------------------------------------------------------------

def test_step_reports_the_prestep_loss_and_clean_grad_norm():
    w = np.array([1.0, 0.0])
    obs = ToyObserver(UNIT_QUAD)
    out = step(
        obs, w, FULL_BATCH, BaseOptState(dim=2),
        BaseOptConfig(kind="sgd"), cfg_for("sam", 0.1, rho=0.1), t=1,
    )
    assert out.loss_at_w == UNIT_QUAD.loss(w)
    assert math.isclose(out.grad_tilde_norm, obs.grad_norm_check())


class ToyObserver(Objective):
    """Wraps an objective and records every (w, batch) it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.num_examples = inner.num_examples
        self.calls = []

    def loss_grad(self, w, batch=FULL_BATCH):
        self.calls.append((np.array(w, dtype=float), batch))
        return self.inner.loss_grad(w, batch)

    def grad_norm_check(self):
        w0 = self.calls[0][0]
        return float(np.linalg.norm(self.inner.grad(w0)))


def test_both_gradients_of_a_step_share_one_batch():
    inner = Quadratic(a=(1.0,), centers=[(0.0,), (1.0,), (2.0,)])
    obs = ToyObserver(inner)
    batch = BatchSpec((0, 2))
    step(
        obs, np.array([0.5]), batch, BaseOptState(dim=1),
        BaseOptConfig(kind="sgd"), cfg_for("wsam", 0.1, rho=0.2, gamma=0.5), t=1,
    )
    assert len(obs.calls) == 2
    assert obs.calls[0][1] is batch and obs.calls[1][1] is batch
    # second evaluation happened at the climbed point, not at w
    assert not np.array_equal(obs.calls[0][0], obs.calls[1][0])


def test_vanilla_step_has_no_sharpness_and_one_evaluation():
    obs = ToyObserver(UNIT_QUAD)
    out = step(
        obs, np.array([1.0, 0.0]), FULL_BATCH, BaseOptState(dim=2),
        BaseOptConfig(kind="sgd"), cfg_for("vanilla", 0.1), t=1,
    )
    assert out.sharpness_term is None
    assert len(obs.calls) == 1
    assert np.allclose(out.new_w, [0.9, 0.0])


def test_sharpness_term_is_the_climbed_loss_gap():
    w = np.array([1.0, 0.0])
    out = step(
        UNIT_QUAD, w, FULL_BATCH, BaseOptState(dim=2),
        BaseOptConfig(kind="sgd"), cfg_for("sam", 0.1, rho=0.1), t=1,
    )
    assert math.isclose(out.sharpness_term, 0.105, rel_tol=0, abs_tol=1e-9)


def test_adaptive_flag_changes_the_step():
    w = np.array([2.0, 1.0])
    args = (UNIT_QUAD, w, FULL_BATCH)
    out_std = step(*args, BaseOptState(dim=2), BaseOptConfig(kind="sgd"),
                   cfg_for("sam", 0.1, rho=0.5), t=1)
    out_ad = step(*args, BaseOptState(dim=2), BaseOptConfig(kind="sgd"),
                  cfg_for("sam", 0.1, rho=0.5, adaptive=True), t=1)
    assert not np.array_equal(out_std.new_w, out_ad.new_w)


# --- mode equivalences ---------------------------------------------------------

def run_steps(obj, w0, mode, base_kind, alpha, rho, gamma, steps, **kw):
    sam_cfg = cfg_for(mode, alpha, rho=rho, gamma=gamma, **kw)
    base_cfg = BaseOptConfig(kind=base_kind)
    state = BaseOptState(dim=len(w0))
    w = np.array(w0, dtype=float)
    for t in range(1, steps + 1):
        w = step(obj, w, FULL_BATCH, state, base_cfg, sam_cfg, t).new_w
    return w


@pytest.mark.parametrize("base_kind,alpha", [("sgd", 0.5), ("sgdm", 0.5), ("adam", 0.05)])
def test_gamma_zero_weighted_mode_equals_vanilla(base_kind, alpha):
    obj = ToyLandscape()
    w0 = (-6.0, 10.0)
    w_wsam = run_steps(obj, w0, "wsam", base_kind, alpha, rho=0.5, gamma=0.0, steps=100)
    w_van = run_steps(obj, w0, "vanilla", base_kind, alpha, rho=0.5, gamma=0.0, steps=100)
    assert np.max(np.abs(w_wsam - w_van)) < 1e-12


def test_coupled_at_half_gamma_is_exactly_sam():
    # h = 1*g + 0*g_tilde
    obj = Quadratic(a=(2.0, 1.0), centers=[(1.0, -1.0)])
    for base_kind, alpha in (("sgdm", 0.1), ("adam", 0.05)):
        w_c = run_steps(obj, (0.0, 0.0), "coupled", base_kind, alpha, rho=0.5, gamma=0.5, steps=100)
        w_s = run_steps(obj, (0.0, 0.0), "sam", base_kind, alpha, rho=0.5, gamma=0.5, steps=100)
        assert np.array_equal(w_c, w_s)


def test_decoupled_with_momentum_differs_from_sam_at_half_gamma():
    # the decoupled correction skips the momentum buffer, so the two-step
    # iterates already disagree
    obj = Quadratic(a=(2.0, 1.0), centers=[(1.0, -1.0)])
    w_w = run_steps(obj, (0.0, 0.0), "wsam", "sgdm", 0.1, rho=0.5, gamma=0.5, steps=2)
    w_s = run_steps(obj, (0.0, 0.0), "sam", "sgdm", 0.1, rho=0.5, gamma=0.5, steps=2)
    assert np.max(np.abs(w_w - w_s)) > 1e-6


@pytest.mark.parametrize("gamma", [0.0, 0.25, 0.5, 0.88])
def test_sgd_base_collapses_all_weighted_modes(gamma):
    obj = Quadratic(a=(2.0, 1.0), centers=[(1.0, -1.0)])
    w0 = (0.0, 0.0)
    w_dec = run_steps(obj, w0, "wsam", "sgd", 0.1, rho=0.5, gamma=gamma, steps=100)
    w_cpl = run_steps(obj, w0, "coupled", "sgd", 0.1, rho=0.5, gamma=gamma, steps=100)
    sam_cfg = cfg_for("coupled", 0.1, rho=0.5, gamma=gamma)
    w = np.array(w0)
    for t in range(1, 101):
        w = step_sgd_wsam(obj, w, FULL_BATCH, sam_cfg, t).new_w
    assert np.max(np.abs(w_dec - w_cpl)) < 1e-12
    assert np.max(np.abs(w_cpl - w)) < 1e-12


def test_clipping_caps_the_base_gradient_but_not_the_correction():
    obj = Quadratic(a=(1.0,), centers=[(0.0,)])
    w = np.array([100.0])
    gamma, rho, clip = 0.75, 1.0, 0.5
    out = step(
        obj, w, FULL_BATCH, BaseOptState(dim=1), BaseOptConfig(kind="sgd"),
        cfg_for("wsam", 1.0, rho=rho, gamma=gamma, clip_norm=clip), t=1,
    )
    g_tilde = obj.grad(w)
    delta = perturb(w, g_tilde, rho, 1e-12)
    g = obj.grad(w + delta)
    coeff = gamma / (1.0 - gamma)
    expected = w - 1.0 * (clip_to_norm(g_tilde, clip) + coeff * (g - g_tilde))
    assert np.allclose(out.new_w, expected, rtol=0, atol=1e-12)
    # the correction alone is far larger than the clip budget
    assert np.linalg.norm(coeff * (g - g_tilde)) > clip


@pytest.mark.parametrize("mode", ["sam", "wsam", "coupled"])
def test_step_sgd_wsam_is_the_coupled_step_with_no_base_state(mode):
    obj = Quadratic(a=(2.0, 1.0), centers=[(1.0, -1.0), (0.5, 0.5)])
    w = np.array([0.3, -0.2])
    got = step_sgd_wsam(obj, w, FULL_BATCH, cfg_for(mode, 0.1, rho=0.5, gamma=0.7), 3)
    coupled = cfg_for("coupled", 0.1, rho=0.5, gamma=0.7)
    stateless = step(obj, w, FULL_BATCH, None, None, coupled, 3)
    sgd = step(obj, w, FULL_BATCH, BaseOptState(dim=2), BaseOptConfig(kind="sgd"), coupled, 3)
    assert np.array_equal(got.new_w, stateless.new_w)
    assert np.array_equal(got.new_w, sgd.new_w)
    assert got.sharpness_term == sgd.sharpness_term
