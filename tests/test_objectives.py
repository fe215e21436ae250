"""Objective evaluations against hand values and the finite-difference oracle."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sharpopt.core import DomainError
from sharpopt.objectives import (
    FULL_BATCH,
    BatchSampler,
    BatchSpec,
    Logistic,
    Quadratic,
    RowByRow,
    ToyLandscape,
    ToyLandscapeParams,
    check_gradients,
    finite_diff_grad,
    kl_univariate,
    quadratic_eval,
    relative_l2_error,
    toy_grad,
    toy_loss,
)


# --- KL helper --------------------------------------------------------------

def test_kl_is_zero_between_identical_gaussians():
    assert kl_univariate(1.5, 2.0, 1.5, 2.0) == 0.0


def test_kl_hand_values():
    # log(2) + 1/8 - 1/2
    assert math.isclose(kl_univariate(0, 1, 0, 2), 0.3181471805599453, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(
        kl_univariate(20, 30, -20, 10), 10.90138771133189, rel_tol=0, abs_tol=1e-12
    )


def test_kl_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        kl_univariate(0, 0, 0, 1)
    with pytest.raises(ValueError):
        kl_univariate(0, 1, 0, -2)


@given(
    st.floats(-50, 50), st.floats(0.1, 50), st.floats(-50, 50), st.floats(0.1, 50)
)
def test_kl_is_nonnegative(mu, sigma, mu_i, sigma_i):
    assert kl_univariate(mu, sigma, mu_i, sigma_i) >= -1e-12


# --- toy landscape ----------------------------------------------------------

def test_toy_loss_at_a_pinned_point():
    assert math.isclose(
        toy_loss((20.0, 30.0)), 0.35645404747221726, rel_tol=0, abs_tol=1e-15
    )


def test_toy_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        toy_loss((0.0, 0.0))
    with pytest.raises(ValueError):
        toy_loss((0.0, -1.0))


def test_toy_loss_finite_far_from_both_basins():
    # log-sum-exp keeps extreme points evaluable
    assert math.isfinite(toy_loss((500.0, 0.01)))
    assert math.isfinite(toy_loss((-500.0, 400.0)))


def test_toy_point_whose_math_overflows_reads_nan():
    # (mu - m)^2 overflows a Python float; the point reads NaN, as a stack row does
    loss, grad = ToyLandscape().loss_grad((1e200, 1.0))
    assert math.isnan(loss)
    assert np.isnan(grad).all() and grad.shape == (2,)
    assert math.isnan(ToyLandscape().loss((1e200, 1.0)))


def test_only_the_toy_has_a_domain_narrower_than_every_finite_point():
    with pytest.raises(DomainError, match="sigma > 0"):
        ToyLandscape().check_domain(np.array([0.0, -1.0]))
    ToyLandscape().check_domain(np.array([1e200, 1.0]))  # overflows, but is inside
    Quadratic(a=[1.0], centers=[[0.0]]).check_domain(np.array([-1e300]))
    Logistic(np.ones((2, 1)), np.array([0.0, 1.0])).check_domain(np.array([-1e300]))


def test_toy_gradient_matches_oracle_at_start_point():
    obj = ToyLandscape()
    w = np.array([-6.0, 10.0])
    err = relative_l2_error(obj.grad(w), finite_diff_grad(obj, w))
    assert err < 1e-6


def test_toy_loss_invariant_under_component_exchange():
    swapped = ToyLandscapeParams(
        means=(-20.0, 20.0), sigmas=(10.0, 30.0), weights=(0.3, 0.7), temperatures=(1.2, 1.8)
    )
    for w in ((-6.0, 10.0), (5.0, 22.0), (-18.0, 13.0)):
        assert math.isclose(toy_loss(w), toy_loss(w, swapped), rel_tol=0, abs_tol=1e-15)


def test_toy_params_validation():
    with pytest.raises(ValueError):
        ToyLandscapeParams(sigmas=(0.0, 10.0))
    with pytest.raises(ValueError):
        ToyLandscapeParams(weights=(0.5, 0.6))
    with pytest.raises(ValueError):
        ToyLandscapeParams(temperatures=(1.0, 0.0))


def test_toy_params_reject_a_negative_mixture_weight():
    with pytest.raises(ValueError, match="mixture weights must be >= 0"):
        ToyLandscapeParams(weights=(1.5, -0.5))
    # a zero weight stays valid: the landscape is then its other component alone
    one = ToyLandscape(ToyLandscapeParams(weights=(1.0, 0.0)))
    assert one.loss([0.0, 5.0]) == pytest.approx(kl_univariate(0.0, 5.0, 20.0, 30.0) / 1.8 ** 2)


def test_row_by_row_raises_at_a_point_outside_the_domain_and_reads_nan_for_such_a_row():
    toy = ToyLandscape()
    wrapped = RowByRow(toy)
    with pytest.raises(DomainError, match="sigma > 0"):
        wrapped.loss_grad([0.0, -1.0])
    losses, grads = wrapped.loss_grad(np.array([[0.0, -1.0], [-6.0, 10.0]]))
    assert np.isnan(losses[0]) and np.isnan(grads[0]).all()
    loss, grad = wrapped.loss_grad([-6.0, 10.0])
    assert type(loss) is float and loss == losses[1] == toy.loss([-6.0, 10.0])
    assert grad.tolist() == grads[1].tolist() == toy.grad([-6.0, 10.0]).tolist()


def test_toy_grad_matches_oracle_on_a_grid():
    obj = ToyLandscape()
    rng = np.random.default_rng(11)
    for _ in range(10):
        w = np.array([rng.uniform(-30, 30), rng.uniform(2, 40)])
        assert relative_l2_error(obj.grad(w), finite_diff_grad(obj, w)) < 1e-6


# --- quadratic ---------------------------------------------------------------

def test_quadratic_eval_hand_value():
    loss, grad = quadratic_eval((1.0, 1.0), (0.0, 0.0), (1.0, 0.0))
    assert loss == 0.5
    assert grad.tolist() == [1.0, 0.0]


def test_quadratic_batch_averages_centers():
    obj = Quadratic(a=(1.0,), centers=[(0.0,), (2.0,)])
    w = np.array([1.0])
    # both centers are distance 1 away
    assert obj.loss(w) == 0.5
    assert obj.grad(w).tolist() == [0.0]
    assert obj.loss(w, BatchSpec((0,))) == 0.5
    assert obj.grad(w, BatchSpec((1,))).tolist() == [-1.0]


def _centres_1024x8():
    rng = np.random.default_rng(11)
    return Quadratic(rng.uniform(0.5, 2.0, size=8), rng.standard_normal((1024, 8))), rng


@pytest.mark.parametrize("batch_size", [None, 1, 128])
def test_quadratic_matches_the_per_centre_reference(batch_size):
    obj, rng = _centres_1024x8()
    w = 2.0 * rng.standard_normal(8)
    if batch_size is None:
        batch, idx = FULL_BATCH, range(obj.num_examples)
    else:
        idx = sorted(rng.choice(obj.num_examples, size=batch_size, replace=False).tolist())
        batch = BatchSpec(tuple(idx))
    ref_loss, ref_grad = 0.0, np.zeros(8)
    for k in idx:
        lk, gk = quadratic_eval(obj.a, obj.centers[k], w)
        ref_loss += lk
        ref_grad += gk
    ref_loss, ref_grad = ref_loss / len(idx), ref_grad / len(idx)
    loss, grad = obj.loss_grad(w, batch)
    assert isinstance(loss, float)
    assert math.isclose(loss, ref_loss, rel_tol=1e-12)
    assert relative_l2_error(grad, ref_grad) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quadratic_rejects_a_nonfinite_point(bad):
    obj, _ = _centres_1024x8()
    w = np.zeros(8)
    w[3] = bad
    with pytest.raises(ValueError):
        obj.loss_grad(w)
    with pytest.raises(ValueError):
        obj.loss_grad(w, BatchSpec((0, 5)))


def test_quadratic_terms_overflow_like_the_per_centre_form():
    # (w - c)^2 alone overflows here, a * (w - c)^2 does not
    obj = Quadratic(a=(1e-10, 1.0), centers=[(0.0, 0.0)])
    w = np.array([1e155, 0.0])
    loss, grad = obj.loss_grad(w)
    ref_loss, ref_grad = quadratic_eval(obj.a, obj.centers[0], w)
    assert loss == ref_loss == 5e299
    assert grad.tolist() == ref_grad.tolist()


def test_quadratic_validation():
    with pytest.raises(ValueError):
        Quadratic(a=(0.0, 1.0), centers=[(0.0, 0.0)])
    with pytest.raises(ValueError):
        Quadratic(a=(1.0,), centers=[(0.0, 1.0)])


# --- batching ----------------------------------------------------------------

def test_batch_spec_validation():
    with pytest.raises(ValueError):
        BatchSpec(())
    with pytest.raises(ValueError):
        BatchSpec((0, 0))
    with pytest.raises(ValueError):
        BatchSpec((-1,))
    with pytest.raises(ValueError):
        BatchSpec((5,)).resolve(3)
    assert FULL_BATCH.is_full
    assert FULL_BATCH.resolve(4).tolist() == [0, 1, 2, 3]


def test_batch_sampler_is_random_access_deterministic():
    s = BatchSampler(seed=3, batch_size=4, num_examples=10)
    assert s.batch_at(17) == s.batch_at(17)
    assert s.batch_at(1) != s.batch_at(2)
    idx = s.batch_at(17).indices
    assert len(set(idx)) == 4 and all(0 <= i < 10 for i in idx)


def test_batch_sampler_draws_are_pinned():
    # the [seed, 1, t] stream and sorted order are part of the replay contract
    assert BatchSampler(seed=3, batch_size=4, num_examples=10).batch_at(17).indices == (0, 2, 6, 8)
    idx = BatchSampler(seed=0, batch_size=5, num_examples=1024).batch_at(2).indices
    assert idx == (295, 299, 566, 568, 900)
    assert all(type(i) is int for i in idx)


def test_batch_sampler_validation():
    with pytest.raises(ValueError):
        BatchSampler(seed=0, batch_size=0, num_examples=5)
    with pytest.raises(ValueError):
        BatchSampler(seed=0, batch_size=6, num_examples=5)
    with pytest.raises(ValueError):
        BatchSampler(seed=0, batch_size=2, num_examples=5).batch_at(0)


# --- logistic ------------------------------------------------------------------

def test_logistic_loss_at_origin_is_log_two():
    obj = Logistic.synthetic(32, 4, seed=1)
    assert math.isclose(obj.loss(np.zeros(4)), math.log(2.0), rel_tol=1e-12)


def test_logistic_gradient_matches_oracle_with_batches():
    obj = Logistic.synthetic(40, 6, seed=7)
    sampler = BatchSampler(seed=0, batch_size=8, num_examples=40)
    rng = np.random.default_rng(5)
    for t in range(1, 6):
        w = rng.standard_normal(6)
        batch = sampler.batch_at(t)
        assert relative_l2_error(obj.grad(w, batch), finite_diff_grad(obj, w, batch)) < 1e-6


def test_logistic_label_noise_flips_exact_count():
    obj = Logistic.synthetic(40, 3, seed=2)
    noisy = obj.with_label_noise(0.25, seed=2)
    assert int(np.sum(obj.labels != noisy.labels)) == 10
    assert np.array_equal(obj.features, noisy.features)


def test_logistic_validation():
    with pytest.raises(ValueError):
        Logistic(np.ones((3, 2)), np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        Logistic(np.ones((0, 2)), np.array([]))
    with pytest.raises(ValueError):
        Logistic.synthetic(10, 2).with_label_noise(1.0)


def test_logistic_csv_round_trip(tmp_path):
    obj = Logistic.synthetic(12, 3, seed=4)
    path = tmp_path / "data.csv"
    header = "x0,x1,x2,label"
    rows = np.hstack([obj.features, obj.labels.reshape(-1, 1)])
    np.savetxt(path, rows, delimiter=",", header=header, comments="")
    loaded = Logistic.from_csv(str(path))
    w = np.array([0.3, -0.1, 0.7])
    assert math.isclose(loaded.loss(w), obj.loss(w), rel_tol=1e-12)


# --- oracle plumbing ----------------------------------------------------------

def test_finite_diff_is_near_exact_on_quadratics():
    obj = Quadratic(a=(2.0, 0.5), centers=[(1.0, -1.0)])
    w = np.array([3.0, 2.0])
    assert relative_l2_error(finite_diff_grad(obj, w), obj.grad(w)) < 1e-10


def test_finite_diff_rejects_bad_step():
    obj = Quadratic(a=(1.0,), centers=[(0.0,)])
    with pytest.raises(ValueError):
        finite_diff_grad(obj, [1.0], h=0.0)


def test_relative_l2_error_basics():
    assert relative_l2_error([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert math.isclose(relative_l2_error([1.1], [1.0]), 0.1, rel_tol=1e-9)


def test_every_builtin_gradient_passes_the_oracle_check():
    results = check_gradients()
    assert {name for name, _, _ in results} == {"toy", "quadratic", "logistic"}
    for name, worst, ok in results:
        assert ok, f"{name} worst relative error {worst:.3e}"
