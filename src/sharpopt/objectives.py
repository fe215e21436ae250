"""Built-in differentiable test problems behind one evaluation contract.

Every built-in ``loss_grad(w, batch)`` returns the batch loss and its exact
analytic gradient at a point, or at each row of a (K, d) stack with the bits
that row gets alone; a point is its checked one-row stack. The toy is one
scalar rows kernel, ``_toy_rows``; the array objectives hand a point function
to ``_evaluate``. ``finite_diff_grad`` is the central-difference oracle.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_vector, l2_norm

# Seed-stream tags; combined with the run seed they give independent,
# randomly-accessible generators per purpose.
SEED_STREAM_INIT = 0
SEED_STREAM_BATCH = 1
SEED_STREAM_DATASET = 2
SEED_STREAM_EIG = 3


@dataclass(frozen=True)
class BatchSpec:
    """Mini-batch index set (0-based); ``indices=None`` marks the full batch."""

    indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.indices is not None:
            idx = tuple(int(i) for i in self.indices)
            if len(idx) == 0:
                raise ValueError("batch must be nonempty")
            if len(set(idx)) != len(idx):
                raise ValueError("batch indices must not repeat")
            if any(i < 0 for i in idx):
                raise ValueError("batch indices must be nonnegative")
            object.__setattr__(self, "indices", idx)

    @property
    def is_full(self) -> bool:
        return self.indices is None

    @classmethod
    def _drawn(cls, idx: np.ndarray) -> BatchSpec:
        """The batch of distinct, sorted, nonnegative indices idx, taken without the checks."""
        batch = object.__new__(cls)
        object.__setattr__(batch, "indices", tuple(idx.tolist()))
        object.__setattr__(batch, "_index", idx)
        return batch

    def resolve(self, num_examples: int) -> np.ndarray:
        if self.indices is None:
            return np.arange(num_examples)
        idx = getattr(self, "_index", None)
        if idx is None:
            idx = np.asarray(self.indices, dtype=np.intp)
        if int(idx.max()) >= num_examples:
            raise ValueError(
                f"batch index {int(idx.max())} out of range for {num_examples} examples"
            )
        return idx


FULL_BATCH = BatchSpec()


@dataclass(frozen=True)
class BatchSampler:
    """Seeded uniform without-replacement batches, addressable by step number."""

    seed: int
    batch_size: int
    num_examples: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 1 <= self.batch_size <= self.num_examples:
            raise ValueError("batch_size must be in [1, num_examples]")

    def batch_at(self, t: int) -> BatchSpec:
        if t < 1:
            raise ValueError("steps are 1-based")
        rng = np.random.default_rng([self.seed, SEED_STREAM_BATCH, t])
        idx = rng.choice(self.num_examples, size=self.batch_size, replace=False)
        idx.sort()
        return BatchSpec._drawn(idx)


class Objective:
    """Evaluatable loss with exact gradient and optional mini-batching.

    Evaluation is pure: identical (w, batch) inputs yield identical outputs.
    Deterministic objectives without a dataset ignore the batch argument.
    One that ``accepts_stacks`` also evaluates a (K, d) stack in one call,
    returning K losses and K gradient rows; a row it cannot evaluate (not
    finite, or outside the domain) reads a non-finite loss instead of raising.
    """

    dim: int
    num_examples: int = 1
    accepts_stacks = False

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def loss(self, w, batch: BatchSpec = FULL_BATCH) -> float:
        return self.loss_grad(w, batch)[0]

    def grad(self, w, batch: BatchSpec = FULL_BATCH) -> np.ndarray:
        return self.loss_grad(w, batch)[1]

    def check_domain(self, w: np.ndarray) -> None:
        """Raise DomainError if w is outside the domain; reads no data. Every finite w is inside here."""


def _evaluate(point, w, dim: int) -> tuple:
    """Evaluate point on each row of a (K, d) stack, or on one point as its checked one-row stack.

    point(v) evaluates one float64 vector v; the gradient may be any sequence of
    reals. A point is checked with ``as_vector`` and raises point's DomainError;
    a row is not checked, and reads NaN there. Scalar math that overflows reads NaN.
    """
    stack = type(w) is np.ndarray and w.ndim == 2
    W = w if stack else as_vector(w, dim=dim)[None, :]
    losses, grads = np.empty(len(W)), np.empty(W.shape)
    for k, v in enumerate(W):
        try:
            losses[k], grads[k] = point(v)
        except (DomainError, ArithmeticError) as exc:
            if not stack and isinstance(exc, DomainError):
                raise
            losses[k] = grads[k] = np.nan
    return (losses, grads) if stack else (float(losses[0]), grads[0])


class RowByRow(Objective):
    """A point-only objective seen through stacks: one inner call per row."""

    accepts_stacks = True

    def __init__(self, inner: Objective):
        self.inner = inner
        self.dim = inner.dim
        self.num_examples = inner.num_examples

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH):
        return _evaluate(lambda v: self.inner.loss_grad(v, batch), w, self.dim)


def kl_univariate(mu: float, sigma: float, mu_i: float, sigma_i: float) -> float:
    """KL divergence from N(mu, sigma^2) to N(mu_i, sigma_i^2).

    ``_toy_rows`` inlines its operations; ``tests/test_toy_rows.py`` calls it as the reference.
    """
    if sigma <= 0.0 or sigma_i <= 0.0:
        raise ValueError("standard deviations must be > 0")
    return (
        math.log(sigma_i / sigma)
        + (sigma * sigma + (mu - mu_i) ** 2) / (2.0 * sigma_i * sigma_i)
        - 0.5
    )


@dataclass(frozen=True)
class ToyLandscapeParams:
    """Two-basin mixture landscape over w = (mu, sigma)."""

    means: tuple[float, float] = (20.0, -20.0)
    sigmas: tuple[float, float] = (30.0, 10.0)
    weights: tuple[float, float] = (0.7, 0.3)
    temperatures: tuple[float, float] = (1.8, 1.2)

    def __post_init__(self):
        if any(s <= 0.0 for s in self.sigmas):
            raise ValueError("component sigmas must be > 0")
        if any(t <= 0.0 for t in self.temperatures):
            raise ValueError("temperatures must be > 0")
        if any(c < 0.0 for c in self.weights):
            raise ValueError("mixture weights must be >= 0")
        if not math.isclose(sum(self.weights), 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("mixture weights must sum to 1")


TOY_DEFAULT = ToyLandscapeParams()


def _toy_rows(rows: list, params: ToyLandscapeParams) -> tuple[list, list]:
    """The K losses and the flat gradients (d mu, d sigma, ...) of K float rows (mu, sigma).

    Scalar math, with ``kl_univariate``'s operations inlined in their order; a
    row outside 0 < sigma < inf, or whose math overflows, reads NaN.
    """
    (m0, m1), (s0, s1) = params.means, params.sigmas
    (c0, c1), (t0, t1) = params.weights, params.temperatures
    two_v0, two_v1, v0, v1 = 2.0 * s0 * s0, 2.0 * s1 * s1, s0 * s0, s1 * s1
    tt0, tt1 = t0 * t0, t1 * t1
    log, exp, nan, inf = math.log, math.exp, math.nan, math.inf
    losses, grads = [], []
    for mu, sigma in rows:
        if 0.0 < sigma < inf:
            try:
                ss, inv, d0, d1 = sigma * sigma, -1.0 / sigma, mu - m0, mu - m1
                e0 = -(log(s0 / sigma) + (ss + d0 ** 2) / two_v0 - 0.5) / tt0
                e1 = -(log(s1 / sigma) + (ss + d1 ** 2) / two_v1 - 0.5) / tt1
                # log-sum-exp keeps the loss finite far from both basins
                shift = e1 if e1 > e0 else e0  # max(e0, e1): a tie or a NaN keeps e0, as in max
                a0 = c0 * exp(e0 - shift)
                a1 = c1 * exp(e1 - shift)
                total = a0 + a1
                r0 = a0 / (total * t0 * t0)
                r1 = a1 / (total * t1 * t1)
                # each sum starts from 0.0, as an accumulating loop's does
                dmu = 0.0 + r0 * d0 / v0 + r1 * d1 / v1
                dsigma = 0.0 + r0 * (inv + sigma / v0) + r1 * (inv + sigma / v1)
                losses.append(-(shift + log(total)))
                grads.append(dmu)
                grads.append(dsigma)
                continue
            except ArithmeticError:
                pass
        losses.append(nan)
        grads += nan, nan
    return losses, grads


def toy_loss(w, params: ToyLandscapeParams = TOY_DEFAULT) -> float:
    return ToyLandscape(params).loss_grad(w)[0]


def toy_grad(w, params: ToyLandscapeParams = TOY_DEFAULT) -> np.ndarray:
    return ToyLandscape(params).loss_grad(w)[1]


class ToyLandscape(Objective):
    """The two-minima (mu, sigma) landscape; batch-free and deterministic."""

    accepts_stacks = True

    def __init__(self, params: ToyLandscapeParams = TOY_DEFAULT):
        self.params = params
        self.dim = 2
        self.num_examples = 1

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        if type(w) is np.ndarray and w.ndim == 2:
            losses, grads = _toy_rows(w.tolist(), self.params)
            return np.array(losses), np.array(grads).reshape(w.shape)
        row = as_vector(w, dim=2).tolist()
        if not row[1] > 0.0:
            raise DomainError("toy landscape requires sigma > 0")
        losses, grads = _toy_rows((row,), self.params)
        return losses[0], np.array(grads)

    def check_domain(self, w: np.ndarray) -> None:
        self.loss_grad(w)  # the point path raises DomainError at sigma <= 0


def quadratic_eval(a, center, w) -> tuple[float, np.ndarray]:
    """Loss 0.5 * sum_i a_i (w_i - c_i)^2 and its gradient a * (w - c)."""
    a = as_vector(a)
    c = as_vector(center, dim=a.size)
    w = as_vector(w, dim=a.size)
    if np.any(a <= 0.0):
        raise ValueError("quadratic diagonal must be strictly positive")
    d = w - c
    loss = 0.0
    for ai, di in zip(a, d):
        loss += 0.5 * ai * di * di
    return float(loss), a * d


class Quadratic(Objective):
    """Diagonal quadratic with one or many centers; batches average centers.

    The batch mean of ``quadratic_eval`` is evaluated in closed form over the
    batch's rows of the center matrix.
    """

    accepts_stacks = True

    def __init__(self, a, centers):
        self.a = as_vector(a)
        if np.any(self.a <= 0.0):
            raise ValueError("quadratic diagonal must be strictly positive")
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim == 1:
            centers = centers.reshape(1, -1)
        if centers.ndim != 2 or centers.shape[1] != self.a.size:
            raise ValueError("centers must be an (m, n) array matching the diagonal")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        self.centers = centers
        self.dim = self.a.size
        self.num_examples = centers.shape[0]

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        centers = self.centers if batch.is_full else self.centers[batch.resolve(self.num_examples)]
        return _evaluate(lambda v: self._point(v, centers), w, self.dim)

    def _point(self, w: np.ndarray, centers: np.ndarray) -> tuple[float, np.ndarray]:
        n = centers.shape[0]
        d = w - centers
        # each centre's terms are quadratic_eval's products, a * d before d,
        # so they overflow where the per-centre evaluation does
        g = self.a * d
        return float((0.5 * g * d).sum()) / n, g.sum(axis=0) / n


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _gather(X: np.ndarray, y: np.ndarray, batch: BatchSpec) -> tuple[np.ndarray, np.ndarray]:
    """The batch's rows; the full batch is the data itself, not a copy."""
    if batch.is_full:
        return X, y
    idx = batch.resolve(X.shape[0])
    return X[idx], y[idx]


def _logistic_point(Xb: np.ndarray, yb: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean sigmoid cross-entropy over the batch's rows and its exact gradient."""
    z = Xb @ w
    loss = float(np.mean(np.logaddexp(0.0, z) - yb * z))
    grad = Xb.T @ (_sigmoid(z) - yb) / len(yb)
    return loss, grad


class Logistic(Objective):
    """Binary logistic regression over an in-memory dataset."""

    accepts_stacks = True

    def __init__(self, features, labels):
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("features must be a nonempty (m, n) array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a length-m vector")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        self.features = X
        self.labels = y
        self.dim = X.shape[1]
        self.num_examples = X.shape[0]

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        # one gather for a stack, then the point arithmetic per row
        Xb, yb = _gather(self.features, self.labels, batch)
        return _evaluate(lambda v: _logistic_point(Xb, yb, v), w, self.dim)

    @classmethod
    def from_csv(cls, path, noise_fraction: float = 0.0, seed: int = 0) -> "Logistic":
        """Load a header-row CSV of feature columns followed by a 0/1 label column."""
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if len(data) == 0:
            raise ValueError(f"CSV {path} has no data rows")
        if data.shape[1] < 2:
            raise ValueError("CSV needs at least one feature column and a label column")
        obj = cls(data[:, :-1], data[:, -1])
        if noise_fraction:
            obj = obj.with_label_noise(noise_fraction, seed)
        return obj

    @classmethod
    def synthetic(
        cls, num_examples: int, dim: int, seed: int = 0, noise_fraction: float = 0.0
    ) -> "Logistic":
        """Seeded separable-ish dataset with optional symmetric label noise."""
        rng = np.random.default_rng([seed, SEED_STREAM_DATASET])
        X = rng.standard_normal((num_examples, dim))
        w_true = rng.standard_normal(dim)
        y = (X @ w_true + 0.5 * rng.standard_normal(num_examples) > 0.0).astype(np.float64)
        obj = cls(X, y)
        if noise_fraction:
            obj = obj.with_label_noise(noise_fraction, seed)
        return obj

    def with_label_noise(self, fraction: float, seed: int = 0) -> "Logistic":
        """Flip a seeded fraction of labels once; the dataset stays frozen afterwards."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError("noise fraction must be in [0, 1)")
        rng = np.random.default_rng([seed, SEED_STREAM_DATASET, 1])
        y = self.labels.copy()
        flips = rng.choice(self.num_examples, size=int(fraction * self.num_examples), replace=False)
        y[flips] = 1.0 - y[flips]
        return Logistic(self.features, y)


def finite_diff_grad(obj: Objective, w, batch: BatchSpec = FULL_BATCH, h: float | None = None) -> np.ndarray:
    """Central-difference gradient; default step 1e-5 * (1 + |w_i|) per coordinate."""
    if h is not None and h <= 0.0:
        raise ValueError("finite-difference step must be > 0")
    w = as_vector(w)
    g = np.empty_like(w)
    for i in range(w.size):
        hi = h if h is not None else 1e-5 * (1.0 + abs(float(w[i])))
        e = np.zeros_like(w)
        e[i] = hi
        g[i] = (obj.loss(w + e, batch) - obj.loss(w - e, batch)) / (2.0 * hi)
    return g


def relative_l2_error(approx, oracle) -> float:
    num = l2_norm(np.asarray(approx) - np.asarray(oracle))
    den = max(l2_norm(oracle), 1e-30)
    return num / den


def gradient_check_suite(seed: int = 0, num_points: int = 20):
    """Built-in objectives with seeded probe points for oracle agreement."""
    rng = np.random.default_rng(seed)
    suite = []

    toy = ToyLandscape()
    toy_points = [
        (np.array([rng.uniform(-30.0, 30.0), rng.uniform(2.0, 40.0)]), FULL_BATCH)
        for _ in range(num_points)
    ]
    suite.append(("toy", toy, toy_points))

    quad = Quadratic(a=(2.0, 1.0, 0.5), centers=[(1.0, -1.0, 0.5)])
    quad_points = [(3.0 * rng.standard_normal(3), FULL_BATCH) for _ in range(num_points)]
    suite.append(("quadratic", quad, quad_points))

    logi = Logistic.synthetic(40, 6, seed=7)
    sampler = BatchSampler(seed=seed, batch_size=8, num_examples=logi.num_examples)
    logi_points = [
        (rng.standard_normal(6), sampler.batch_at(t) if t % 2 else FULL_BATCH)
        for t in range(1, num_points + 1)
    ]
    suite.append(("logistic", logi, logi_points))
    return suite


def check_gradients(seed: int = 0, tol: float = 1e-5):
    """Max oracle disagreement per built-in objective; used by the check-grad command."""
    results = []
    for name, obj, points in gradient_check_suite(seed=seed):
        worst = 0.0
        for w, batch in points:
            analytic = obj.grad(w, batch)
            oracle = finite_diff_grad(obj, w, batch)
            worst = max(worst, relative_l2_error(analytic, oracle))
        results.append((name, worst, worst < tol))
    return results
