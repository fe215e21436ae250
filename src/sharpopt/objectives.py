"""Built-in differentiable test problems behind one evaluation contract.

Every objective exposes ``loss_grad(w, batch)`` returning the batch loss and
its exact analytic gradient. ``finite_diff_grad`` is the central-difference
oracle the analytic gradients are checked against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_vector, l2_norm

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

    def resolve(self, num_examples: int) -> np.ndarray:
        if self.indices is None:
            return np.arange(num_examples)
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
        return BatchSpec(tuple(idx.tolist()))


class Objective:
    """Evaluatable loss with exact gradient and optional mini-batching.

    Evaluation is pure: identical (w, batch) inputs yield identical outputs.
    Deterministic objectives without a dataset ignore the batch argument.
    """

    dim: int
    num_examples: int = 1

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        raise NotImplementedError

    def loss(self, w, batch: BatchSpec = FULL_BATCH) -> float:
        return self.loss_grad(w, batch)[0]

    def grad(self, w, batch: BatchSpec = FULL_BATCH) -> np.ndarray:
        return self.loss_grad(w, batch)[1]


def kl_univariate(mu: float, sigma: float, mu_i: float, sigma_i: float) -> float:
    """KL divergence from N(mu, sigma^2) to N(mu_i, sigma_i^2)."""
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
        if not math.isclose(sum(self.weights), 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("mixture weights must sum to 1")


TOY_DEFAULT = ToyLandscapeParams()


def _toy_eval(w, params: ToyLandscapeParams) -> tuple[float, np.ndarray]:
    w = as_vector(w, dim=2)
    mu, sigma = float(w[0]), float(w[1])
    if sigma <= 0.0:
        raise ValueError("toy landscape requires sigma > 0")
    ks = [kl_univariate(mu, sigma, m, s) for m, s in zip(params.means, params.sigmas)]
    exponents = [-k / (t * t) for k, t in zip(ks, params.temperatures)]
    # log-sum-exp keeps the loss finite far from both basins
    shift = max(exponents)
    terms = [wt * math.exp(e - shift) for wt, e in zip(params.weights, exponents)]
    total = terms[0] + terms[1]
    loss = -(shift + math.log(total))

    dmu = 0.0
    dsigma = 0.0
    for term, t, m, s in zip(terms, params.temperatures, params.means, params.sigmas):
        r = term / (total * t * t)
        dmu += r * (mu - m) / (s * s)
        dsigma += r * (-1.0 / sigma + sigma / (s * s))
    return loss, np.array([dmu, dsigma])


def toy_loss(w, params: ToyLandscapeParams = TOY_DEFAULT) -> float:
    return _toy_eval(w, params)[0]


def toy_grad(w, params: ToyLandscapeParams = TOY_DEFAULT) -> np.ndarray:
    return _toy_eval(w, params)[1]


class ToyLandscape(Objective):
    """The two-minima (mu, sigma) landscape; batch-free and deterministic."""

    def __init__(self, params: ToyLandscapeParams = TOY_DEFAULT):
        self.params = params
        self.dim = 2
        self.num_examples = 1

    def loss_grad(self, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
        return _toy_eval(w, self.params)


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
        w = as_vector(w, dim=self.dim)
        centers = self.centers if batch.is_full else self.centers[batch.resolve(self.num_examples)]
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


def logistic_eval(features, labels, w, batch: BatchSpec = FULL_BATCH) -> tuple[float, np.ndarray]:
    """Mean sigmoid cross-entropy over a batch and its exact gradient."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    w = as_vector(w, dim=X.shape[1])
    idx = batch.resolve(X.shape[0])
    Xb, yb = X[idx], y[idx]
    z = Xb @ w
    loss = float(np.mean(np.logaddexp(0.0, z) - yb * z))
    grad = Xb.T @ (_sigmoid(z) - yb) / len(idx)
    return loss, grad


class Logistic(Objective):
    """Binary logistic regression over an in-memory dataset."""

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
        return logistic_eval(self.features, self.labels, w, batch)

    @classmethod
    def from_csv(cls, path, noise_fraction: float = 0.0, seed: int = 0) -> "Logistic":
        """Load a header-row CSV of feature columns followed by a 0/1 label column."""
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
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
