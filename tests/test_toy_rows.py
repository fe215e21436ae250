"""The toy's rows kernel, pinned bit for bit to the per-row point formula it replaced."""
import math

import numpy as np
import pytest

from sharpopt.core import DomainError, as_vector
from sharpopt.objectives import ToyLandscape, ToyLandscapeParams, kl_univariate

SCALES = (1.0, 30.0, 1e3, 1e20, 1e77, 1e154, 1e160)
ROWS_PER_SCALE = 15_000


# --- the reference: one point function applied to each float row -------------

def reference_point(w, params):
    mu, sigma = float(w[0]), float(w[1])
    if not 0.0 < sigma < math.inf:
        raise DomainError("toy landscape requires sigma > 0")
    (m0, m1), (s0, s1) = params.means, params.sigmas
    (c0, c1), (t0, t1) = params.weights, params.temperatures
    e0 = -kl_univariate(mu, sigma, m0, s0) / (t0 * t0)
    e1 = -kl_univariate(mu, sigma, m1, s1) / (t1 * t1)
    shift = max(e0, e1)
    a0 = c0 * math.exp(e0 - shift)
    a1 = c1 * math.exp(e1 - shift)
    total = a0 + a1
    r0 = a0 / (total * t0 * t0)
    r1 = a1 / (total * t1 * t1)
    dmu = 0.0 + r0 * (mu - m0) / (s0 * s0) + r1 * (mu - m1) / (s1 * s1)
    dsigma = 0.0 + r0 * (-1.0 / sigma + sigma / (s0 * s0)) + r1 * (-1.0 / sigma + sigma / (s1 * s1))
    return -(shift + math.log(total)), (dmu, dsigma)


def reference_stack(W, params):
    losses, grads = [], []
    for w in W.tolist():
        try:
            loss, grad = reference_point(w, params)
        except (DomainError, ArithmeticError):
            loss, grad = math.nan, [math.nan] * len(w)
        losses.append(loss)
        grads.append(grad)
    return np.array(losses, dtype=np.float64), np.array(grads, dtype=np.float64).reshape(W.shape)


def reference_at(w, params):
    try:
        loss, grad = reference_point(as_vector(w, dim=2), params)
    except ArithmeticError:
        return math.nan, np.full(2, np.nan)
    return loss, np.asarray(grad)


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# --- the rows --------------------------------------------------------------------

SPECIAL = [
    (math.nan, 10.0), (0.0, math.nan), (math.nan, math.nan),
    (math.inf, 10.0), (-math.inf, 10.0), (0.0, math.inf), (0.0, -math.inf),
    (math.inf, math.inf), (-math.inf, math.nan),
    (0.0, 0.0), (5.0, -0.0), (-6.0, -1.0), (1e200, -1e-300), (0.0, 5e-324), (1e-300, 5e-324),
    # (mu - m) ** 2 overflows a float
    (1e200, 1.0), (-1e200, 1.0), (1.4e154, 3.0), (-1.4e154, 3.0), (1e308, 1e308), (-1e308, 1e-10),
    # sigma * sigma overflows to inf instead
    (0.0, 1e160), (-6.0, 1.7e308),
    (-6.0, 10.0), (20.0, 30.0), (-20.0, 10.0), (-0.0, 1.0), (-0.0, 4.0), (0.0, 4.0),
]


def pinned_rows(seed=2026):
    rng = np.random.default_rng(seed)
    blocks = []
    for scale in SCALES:
        block = rng.standard_normal((ROWS_PER_SCALE, 2)) * scale
        # most rows inside the domain, the rest at sigma <= 0
        block[: 2 * ROWS_PER_SCALE // 3, 1] = np.abs(block[: 2 * ROWS_PER_SCALE // 3, 1])
        blocks.append(block)
    blocks.append(np.array(SPECIAL))
    return np.concatenate(blocks)


PARAMS = [
    ToyLandscapeParams(),
    ToyLandscapeParams(means=(3.5, -0.25), sigmas=(0.7, 13.0), weights=(0.05, 0.95),
                       temperatures=(0.3, 2.9)),
    # mu = -0.0 makes both mean offsets -0.0, so each gradient sum's leading 0.0 shows in its
    # sign; a zero weight makes the mixture's total 0.0 (a division by zero) far from both means
    ToyLandscapeParams(means=(0.0, 0.0), sigmas=(4.0, 1.0), weights=(0.0, 1.0),
                       temperatures=(1.0, 1.0)),
    # 2 * s1 * s1 overflows, so a row whose sigma * sigma does too reads inf / inf = NaN in the
    # second exponent alone, where max(e0, e1) keeps the first
    ToyLandscapeParams(sigmas=(30.0, 1e200)),
]


@pytest.mark.parametrize("params", PARAMS)
def test_a_stack_gets_the_bits_of_the_point_formula_on_every_row(params):
    W = pinned_rows()
    assert len(W) >= 100_000
    losses, grads = ToyLandscape(params).loss_grad(W)
    want_losses, want_grads = reference_stack(W, params)
    assert losses.shape == (len(W),) and grads.shape == W.shape
    assert losses.dtype == grads.dtype == np.float64
    assert np.array_equal(bits(losses), bits(want_losses))
    assert np.array_equal(bits(grads), bits(want_grads))
    # the rows cover every outcome: finite, NaN for the domain, NaN for an overflow
    assert np.isfinite(losses).sum() > len(W) // 10
    assert np.isnan(losses[W[:, 1] <= 0.0]).all()
    assert np.isnan(ToyLandscape(params).loss_grad(np.array([[1e200, 1.0]]))[0]).all()


def test_sliced_and_empty_stacks_read_as_their_rows():
    obj = ToyLandscape()
    W = pinned_rows()[::7][:3000]
    for stack in (W, np.asfortranarray(W), pinned_rows()[::2, :][:3000]):
        losses, grads = obj.loss_grad(stack)
        want_losses, want_grads = reference_stack(stack, obj.params)
        assert np.array_equal(bits(losses), bits(want_losses))
        assert np.array_equal(bits(grads), bits(want_grads))
    losses, grads = obj.loss_grad(np.empty((0, 2)))
    assert losses.shape == (0,) and grads.shape == (0, 2)


def test_a_point_gets_the_bits_of_its_one_row_stack():
    obj = ToyLandscape()
    W = pinned_rows()
    inside = W[np.isfinite(W).all(axis=1) & (W[:, 1] > 0.0)][::40]
    assert len(inside) > 1500
    for w in inside:
        loss, grad = obj.loss_grad(w)
        row_losses, row_grads = obj.loss_grad(w.reshape(1, 2))
        assert type(loss) is float and grad.shape == (2,)
        assert bits(loss) == bits(row_losses[0])
        assert np.array_equal(bits(grad), bits(row_grads[0]))
        want_loss, want_grad = reference_at(w, obj.params)
        assert bits(loss) == bits(want_loss)
        assert np.array_equal(bits(grad), bits(want_grad))
    # a point given as a tuple or a list is the same point
    for w in ((1e200, 1.0), [-6.0, 10.0], (0.0, 5e-324)):
        loss, grad = obj.loss_grad(w)
        want_loss, want_grad = reference_at(w, obj.params)
        assert bits(loss) == bits(want_loss)
        assert np.array_equal(bits(grad), bits(want_grad))


@pytest.mark.parametrize("w", [(0.0, 0.0), (5.0, -0.0), (-6.0, -1.0), (1e200, -1e-300)])
def test_a_point_at_sigma_at_most_zero_raises_domain_error(w):
    obj = ToyLandscape()
    with pytest.raises(DomainError, match="toy landscape requires sigma > 0"):
        obj.loss_grad(w)
    with pytest.raises(DomainError, match="toy landscape requires sigma > 0"):
        obj.check_domain(np.array(w))
    # the same row in a stack reads NaN instead
    losses, grads = obj.loss_grad(np.array([w]))
    assert np.isnan(losses).all() and np.isnan(grads).all()


@pytest.mark.parametrize("w", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_a_non_finite_point_raises_domain_error(w):
    with pytest.raises(DomainError, match="vector entries must be finite"):
        ToyLandscape().loss_grad(w)
