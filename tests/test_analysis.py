"""Curvature probes, regret curves, the bound calculator, and minima bookkeeping."""
import math

import numpy as np
import pytest

from sharpopt.analysis import (
    FLAT,
    SHARP,
    EigEstimate,
    GenBoundInputs,
    StepRecord,
    Trajectory,
    classify_minimum,
    dense_hessian,
    generalization_bound,
    hvp,
    min_grad_norm_curve,
    power_iteration,
    regret_curve,
    toy_minima,
    _power_rows,
)
from sharpopt.core import DomainError, dot, l2_norm
from sharpopt.objectives import (
    FULL_BATCH,
    SEED_STREAM_EIG,
    BatchSampler,
    BatchSpec,
    Logistic,
    Objective,
    Quadratic,
    ToyLandscape,
)


class QuadraticForm(Objective):
    """0.5 * w' A w for a fixed symmetric A; exact Hessian is A."""

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        self.dim = self.A.shape[0]
        self.num_examples = 1

    def loss_grad(self, w, batch=FULL_BATCH):
        w = np.asarray(w, dtype=float)
        return 0.5 * float(w @ self.A @ w), self.A @ w


# --- hessian-vector products ---------------------------------------------------

def test_hvp_is_exact_on_diagonal_quadratics():
    obj = Quadratic(a=(2.0, 0.5, 1.0), centers=[(0.0, 0.0, 0.0)])
    v = np.array([1.0, -2.0, 4.0])
    assert np.allclose(hvp(obj, np.ones(3), v), [2.0, -1.0, 4.0], rtol=1e-9)


def test_hvp_zero_vector_short_circuits():
    obj = Quadratic(a=(1.0,), centers=[(0.0,)])
    assert np.array_equal(hvp(obj, [1.0], [0.0]), [0.0])


def test_hvp_rejects_bad_step():
    obj = Quadratic(a=(1.0,), centers=[(0.0,)])
    with pytest.raises(ValueError):
        hvp(obj, [1.0], [1.0], h=-1e-3)


def test_hvp_is_symmetric_as_a_bilinear_form():
    obj = ToyLandscape()
    w = np.array([-6.0, 10.0])
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        lhs = float(u @ hvp(obj, w, v))
        rhs = float(v @ hvp(obj, w, u))
        scale = max(abs(lhs), abs(rhs), 1e-12)
        assert abs(lhs - rhs) / scale < 1e-4


def test_dense_hessian_matches_the_quadratic_diagonal():
    obj = Quadratic(a=(3.0, 1.0), centers=[(1.0, 1.0)])
    H = dense_hessian(obj, np.zeros(2))
    assert np.allclose(H, np.diag([3.0, 1.0]), atol=1e-8)
    with pytest.raises(ValueError):
        dense_hessian(QuadraticForm(np.eye(60)), np.zeros(60))


# --- power iteration ------------------------------------------------------------

def test_power_iteration_on_a_non_diagonal_hessian():
    obj = QuadraticForm([[2.0, 1.0], [1.0, 2.0]])
    est = power_iteration(obj, np.zeros(2), seed=0)
    assert math.isclose(est.lambda_max, 3.0, rel_tol=1e-6)
    assert est.iterations_used <= 200
    assert est.residual < 1e-6


def test_power_iteration_matches_the_dense_oracle_on_builtins():
    probes = [
        (Quadratic(a=(2.0, 1.0, 0.5), centers=[(1.0, -1.0, 0.5)]), 3.0 * np.ones(3)),
        (ToyLandscape(), toy_minima().sharp_w),
        (ToyLandscape(), toy_minima().flat_w),
    ]
    for obj, w in probes:
        ref = float(np.abs(np.linalg.eigvalsh(dense_hessian(obj, w))).max())
        for seed in range(5):
            est = power_iteration(obj, w, seed=seed)
            assert abs(abs(est.lambda_max) - ref) / ref < 1e-3


def test_power_iteration_zero_hessian_returns_zero():
    class Flat(Objective):
        dim = 2

        def loss_grad(self, w, batch=FULL_BATCH):
            return 1.0, np.zeros(2)

    est = power_iteration(Flat(), np.zeros(2))
    assert est == EigEstimate(0.0, 1, 0.0)


def test_power_iteration_validation():
    obj = QuadraticForm(np.eye(2))
    with pytest.raises(ValueError):
        power_iteration(obj, np.zeros(2), tol=0.0)
    with pytest.raises(ValueError):
        power_iteration(obj, np.zeros(2), max_iters=0)


def test_sharp_basin_has_the_larger_top_eigenvalue():
    minima = toy_minima()
    toy = ToyLandscape()
    lam_sharp = power_iteration(toy, minima.sharp_w).lambda_max
    lam_flat = power_iteration(toy, minima.flat_w).lambda_max
    assert lam_sharp > lam_flat > 0.0
    # both basins are true minima: all oracle eigenvalues positive
    assert np.all(np.linalg.eigvalsh(dense_hessian(toy, minima.sharp_w)) > 0)
    assert np.all(np.linalg.eigvalsh(dense_hessian(toy, minima.flat_w)) > 0)


# --- the stacked power iteration -------------------------------------------------

class PointOnly(Objective):
    """An objective seen only through points: the stack paths wrap it row by row."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.num_examples = inner.num_examples

    def loss_grad(self, w, batch=FULL_BATCH):
        assert np.ndim(w) == 1
        return self.inner.loss_grad(w, batch)


class Terraced(Objective):
    """Point-only 0.5 w' diag(1, 1 - 2^-r) w on the strip r <= w_0 < r + 1, and flat at w_0 < 0.

    The nearer the two eigenvalues, the slower the iteration converges, so
    the strip a row sits on sets its iteration count; a flat row has Hv = 0.
    """

    dim = 2

    def loss_grad(self, w, batch=FULL_BATCH):
        w = np.asarray(w, dtype=float)
        r = math.floor(w[0])
        if r < 0:
            return 1.0, np.zeros(2)
        a = np.array([1.0, 1.0 - 0.5 ** r])
        return 0.5 * float(w @ (a * w)), a * w


def point_power_iteration(obj, w, batch=FULL_BATCH, max_iters=200, tol=1e-6, seed=0):
    """power_iteration as a loop of point hvp calls, one row at a time."""
    rng = np.random.default_rng([seed, SEED_STREAM_EIG])
    v = rng.standard_normal(w.size)
    v = v / l2_norm(v)
    lam, lam_prev, residual = 0.0, None, math.inf
    for k in range(1, max_iters + 1):
        Hv = hvp(obj, w, v, batch)
        lam = dot(v, Hv)
        norm = l2_norm(Hv)
        if norm == 0.0:
            return EigEstimate(0.0, k, 0.0)
        v = Hv / norm
        if lam_prev is not None:
            residual = abs(lam - lam_prev) / max(abs(lam), 1e-300)
            if residual < tol:
                return EigEstimate(lam, k, residual)
        lam_prev = lam
    return EigEstimate(lam, max_iters, residual)


def assert_rows_are_their_points(obj, W, seed, batch=FULL_BATCH, **limits):
    stacked = _power_rows(obj, W, seed, batch, **limits)
    assert len(stacked) == len(W)
    for w, est in zip(W, stacked):
        assert est == power_iteration(obj, w, batch, seed=seed, **limits)
        assert est == point_power_iteration(obj, w, batch, seed=seed, **limits)
    return stacked


def _logistic():
    return Logistic.synthetic(64, 6, seed=3)


def _minibatch():
    return BatchSampler(seed=5, batch_size=16, num_examples=64).batch_at(3)


STACK_CASES = {
    "toy": (ToyLandscape, lambda rng, K: np.column_stack(
        (rng.uniform(-30.0, 30.0, K), rng.uniform(2.0, 40.0, K))), lambda: FULL_BATCH),
    "quadratic": (lambda: Quadratic(a=(3.0, 1.0, 0.5, 2.0), centers=np.arange(24.0).reshape(6, 4)),
                  lambda rng, K: 3.0 * rng.standard_normal((K, 4)), lambda: FULL_BATCH),
    "logistic": (_logistic, lambda rng, K: rng.standard_normal((K, 6)), lambda: FULL_BATCH),
    "logistic_minibatch": (_logistic, lambda rng, K: rng.standard_normal((K, 6)), _minibatch),
    "point_only": (lambda: PointOnly(_logistic()), lambda rng, K: rng.standard_normal((K, 6)),
                   lambda: FULL_BATCH),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
@pytest.mark.parametrize("K", [1, 2, 3, 8, 24])
def test_each_stacked_row_is_its_power_iteration(case, K):
    make_obj, points, batch = STACK_CASES[case]
    obj = make_obj()
    rng = np.random.default_rng([K, len(case)])
    W = points(rng, K)
    stacked = assert_rows_are_their_points(obj, W, seed=K, batch=batch())
    # a strided row may reduce in another order than a contiguous one, so a
    # sliced, non-contiguous stack is held to its own rows
    wide = np.zeros((2 * K, 2 * W.shape[1]))
    wide[::2, ::2] = W
    view = wide[::2, ::2]
    assert not view.flags.c_contiguous
    assert_rows_are_their_points(obj, view, seed=K, batch=batch())
    if case == "toy" and K == 24:
        assert len({est.iterations_used for est in stacked}) > 1


def test_stacked_rows_stop_on_their_own_flat_converged_or_capped():
    W = np.array([[1.5, 1.0], [-5.5, 2.0], [3.5, -1.0], [6.5, 0.5], [-0.5, 0.0], [2.5, 2.0]])
    stacked = assert_rows_are_their_points(Terraced(), W, seed=4, max_iters=60)
    iterations = [est.iterations_used for est in stacked]
    assert stacked[1] == stacked[4] == EigEstimate(0.0, 1, 0.0)
    assert iterations[3] == 60 and stacked[3].residual >= 1e-6
    assert 1 < iterations[0] < iterations[5] < iterations[2] < 60


@pytest.mark.parametrize("bad", [(0.0, 1e-6), (0.0, 1e-4)])
def test_a_probe_that_leaves_the_domain_raises_from_the_stack_as_from_its_point(bad):
    toy = ToyLandscape()
    with pytest.raises(DomainError) as point:
        power_iteration(toy, bad, seed=0)
    # the row's error is its entry, and the rows around it keep their estimates
    (one_row,) = _power_rows(toy, np.array([bad]), 0)
    first, stacked, last = _power_rows(toy, np.array([[-6.0, 10.0], bad, [5.0, 3.0]]), 0)
    assert type(one_row) is type(stacked) is DomainError
    assert str(point.value) == str(one_row) == str(stacked)
    assert str(point.value) == "toy landscape requires sigma > 0"
    assert first == power_iteration(toy, [-6.0, 10.0], seed=0)
    assert last == power_iteration(toy, [5.0, 3.0], seed=0)


# --- trajectory curves ------------------------------------------------------------

def make_traj(losses, grad_norms, w=None):
    records = tuple(
        StepRecord(t=i + 1, loss=l, grad_norm=g, w=w)
        for i, (l, g) in enumerate(zip(losses, grad_norms))
    )
    return Trajectory(records=records, final_w=w if w is not None else np.zeros(1))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(records=(), final_w=np.zeros(1))
    bad = (StepRecord(t=2, loss=0.0, grad_norm=0.0), StepRecord(t=2, loss=0.0, grad_norm=0.0))
    with pytest.raises(ValueError):
        Trajectory(records=bad, final_w=np.zeros(1))


def test_regret_curve_is_the_prefix_sum_of_loss_gaps():
    obj = Quadratic(a=(1.0,), centers=[(0.0,)])
    traj = make_traj([0.5, 0.3], [1.0, 0.5], w=np.array([0.1]))
    curve = regret_curve(traj, obj, w_star=[0.0])
    assert np.allclose(curve, [0.5, 0.8], rtol=0, atol=0)


def test_regret_curve_uses_each_steps_own_batch():
    obj = Quadratic(a=(1.0,), centers=[(0.0,), (4.0,)])
    batches = {1: BatchSpec((0,)), 2: BatchSpec((1,))}
    traj = make_traj([1.0, 1.0], [1.0, 1.0], w=np.array([0.0]))
    curve = regret_curve(traj, obj, w_star=[1.0], batch_at=batches.__getitem__)
    # losses at w*=1: batch 0 -> 0.5, batch 1 -> 4.5
    assert np.allclose(curve, [1.0 - 0.5, 0.5 + 1.0 - 4.5])


def test_min_grad_norm_curve_is_a_running_min_of_squares():
    traj = make_traj([1.0, 1.0, 1.0], [3.0, 1.0, 2.0])
    assert np.allclose(min_grad_norm_curve(traj), [9.0, 1.0, 1.0])
    assert np.all(np.diff(min_grad_norm_curve(traj)) <= 0.0)


# --- generalization bound -----------------------------------------------------------

BOUND_EXAMPLE = dict(
    vc_dim=10, sample_count=1000, param_dim=5, rho=0.1, gamma=0.9,
    delta=0.05, weight_norm=1.0, empirical_wsam_loss=0.1,
)


def test_bound_frozen_value():
    val = generalization_bound(GenBoundInputs(**BOUND_EXAMPLE))
    assert math.isclose(val, 14.288026790389969, rel_tol=0, abs_tol=1e-12)


def test_bound_gamma_degeneracies():
    m, d = 1000, 10
    c1 = 8.0 * d * math.log(math.e * m / d) + 2.0 * math.log(4.0 / 0.05)
    at0 = generalization_bound(GenBoundInputs(**{**BOUND_EXAMPLE, "gamma": 0.0}))
    assert math.isclose(at0, 0.1 + 2.0 * math.sqrt(c1 / m), rel_tol=1e-14)

    n, rho = 5, 0.1
    ratio = (1.0 / rho) ** 2 * (1.0 + math.sqrt(math.log(m) / n)) ** 2
    c2 = n * math.log1p(ratio)
    c3 = 4.0 * math.log(m / 0.05) + 8.0 * math.log(6.0 * m + 3.0 * n)
    at_half = generalization_bound(GenBoundInputs(**{**BOUND_EXAMPLE, "gamma": 0.5}))
    assert math.isclose(at_half, 0.1 + math.sqrt((c2 + c3) / (m - 1.0)), rel_tol=1e-14)


def test_bound_monotone_in_sample_count_and_radius():
    vals_m = [
        generalization_bound(GenBoundInputs(**{**BOUND_EXAMPLE, "sample_count": m}))
        for m in (200, 1000, 5000, 25000, 125000)
    ]
    assert all(b < a for a, b in zip(vals_m, vals_m[1:]))

    vals_rho = [
        generalization_bound(GenBoundInputs(**{**BOUND_EXAMPLE, "rho": r}))
        for r in (1.0, 0.3, 0.1, 0.03, 0.01)
    ]
    assert all(b > a for a, b in zip(vals_rho, vals_rho[1:]))


@pytest.mark.parametrize(
    "field,value",
    [
        ("vc_dim", 0),
        ("sample_count", 1),
        ("param_dim", 0),
        ("rho", 0.0),
        ("gamma", 1.0),
        ("delta", 0.0),
        ("delta", 1.0),
        ("weight_norm", -1.0),
        ("empirical_wsam_loss", 1.5),
    ],
)
def test_bound_input_validation(field, value):
    with pytest.raises(ValueError):
        GenBoundInputs(**{**BOUND_EXAMPLE, field: value})


def test_bound_requires_sample_count_above_capacity():
    # e*m must exceed the VC dimension for the capacity log to stay positive
    with pytest.raises(ValueError):
        GenBoundInputs(**{**BOUND_EXAMPLE, "vc_dim": 3000})


# --- located minima -----------------------------------------------------------------

def test_toy_minima_frozen_coordinates():
    minima = toy_minima()
    assert np.allclose(minima.sharp_w, [-16.80474396, 12.80254353], atol=1e-6)
    assert np.allclose(minima.flat_w, [19.81004736, 29.93662043], atol=1e-6)
    assert math.isclose(minima.sharp_loss, 0.2752296543465072, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(minima.flat_loss, 0.3564469282953429, rel_tol=0, abs_tol=1e-12)
    assert minima.sharp_loss < minima.flat_loss


def test_classify_minimum():
    assert classify_minimum([-16.8, 12.8]) == SHARP
    assert classify_minimum([19.8, 29.9]) == FLAT
    # equidistant-ish probe resolves by actual distance
    assert classify_minimum([0.0, 20.0]) == SHARP
    with pytest.raises(ValueError):
        classify_minimum([1.0, 2.0, 3.0])


def test_the_frozen_toy_minima_are_what_descent_finds():
    from sharpopt.analysis import _locate_toy_minima

    found, frozen = _locate_toy_minima(), toy_minima()
    for name in ("sharp_w", "flat_w"):
        assert np.allclose(getattr(found, name), getattr(frozen, name), rtol=1e-12, atol=0)
    for name in ("sharp_loss", "flat_loss"):
        assert math.isclose(getattr(found, name), getattr(frozen, name), rel_tol=1e-12)


@pytest.mark.parametrize("field,value,message", [
    ("rho", math.inf, "rho must be finite and > 0"),
    ("rho", math.nan, "rho must be finite and > 0"),
    ("weight_norm", math.inf, "weight_norm must be finite and >= 0"),
    ("weight_norm", math.nan, "weight_norm must be finite and >= 0"),
    ("gamma", math.nan, r"gamma must be in \[0,1\)"),
    ("gamma", -0.1, r"gamma must be in \[0,1\)"),
])
def test_bound_inputs_reject_non_finite_values_and_keep_the_gamma_message(field, value, message):
    with pytest.raises(ValueError, match=message):
        GenBoundInputs(**{**BOUND_EXAMPLE, field: value})
