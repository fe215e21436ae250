"""Instruments for finished or running trajectories.

Hessian-vector products by central differences of the analytic gradient,
power iteration for the dominant eigenvalue, regret and gradient-norm
curves, a generalization-bound calculator, and classification of toy-run
endpoints against the catalogued minima.

``hvp`` and the power iteration work on a point or on a (K, d) stack of
points, as the step does. ``power_iteration`` is the one-row case of a
stacked iteration whose rows stop, or fail, on their own, each step
differencing all unfinished rows in one evaluation; a sweep runs one per
seed group, and each row's outcome, an estimate or the error of a probe
outside the domain, is ``power_iteration``'s for that row, bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, as_vector, l2_norm, row_norms
from .objectives import (
    FULL_BATCH,
    SEED_STREAM_EIG,
    BatchSpec,
    Objective,
    RowByRow,
    ToyLandscape,
    toy_loss,
)
from .sam import gamma_coefficients

SHARP = "sharp"
FLAT = "flat"


@dataclass(frozen=True)
class StepRecord:
    """One step's observables; w is kept only for small problems."""

    t: int
    loss: float
    grad_norm: float
    sharpness: float | None = None
    w: np.ndarray | None = None


@dataclass(frozen=True)
class Trajectory:
    records: tuple[StepRecord, ...]
    final_w: np.ndarray

    def __post_init__(self):
        if len(self.records) == 0:
            raise ValueError("trajectory needs at least one record")
        steps = [r.t for r in self.records]
        if steps[0] < 1 or any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("record steps must increase strictly from >= 1")
        object.__setattr__(self, "final_w", as_vector(self.final_w))

    def __len__(self) -> int:
        return len(self.records)

    def steps(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=np.int64)

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])

    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.records])


def hvp(obj: Objective, w, v, batch: BatchSpec = FULL_BATCH, h: float | None = None) -> np.ndarray:
    """Hessian-vector product by central differences of the gradient.

    w and v are one point and one direction, or (K, d) stacks of them. A
    stack needs h, a (K, 1) column of steps, and nonzero directions; it is
    differenced row-wise in one evaluation of its 2K points w +- h v, so each
    row gets the bits its point gets with that h. A stack is not checked, and
    a row whose points leave the domain reads NaN where its point raises
    DomainError.
    """
    if type(w) is np.ndarray and w.ndim == 2:
        if h is None or np.any(h <= 0.0):
            raise ValueError("a stack needs difference steps h > 0")
        if not obj.accepts_stacks:
            obj = RowByRow(obj)
        hv = h * v
        # a NaN row here is the caller's to catch, as in the step loop
        with np.errstate(all="ignore"):
            G = obj.loss_grad(np.concatenate((w + hv, w - hv)), batch)[1]
        return (G[: len(w)] - G[len(w):]) / (2.0 * h)
    w = as_vector(w)
    v = as_vector(v, dim=w.size)
    v_norm = l2_norm(v)
    if v_norm == 0.0:
        return np.zeros_like(w)
    if h is None:
        h = 1e-4 * (1.0 + _step_norms(w[None, :])[0]) / v_norm
    elif h <= 0.0:
        raise ValueError("difference step h must be > 0")
    return (obj.grad(w + h * v, batch) - obj.grad(w - h * v, batch)) / (2.0 * h)


def _step_norms(W: np.ndarray) -> np.ndarray:
    """row_norms of finite (K, d) points, finite where the sum of squares overflows.

    Only such a row (|w| past about 1.3e154) is taken again over its largest |entry|.
    """
    with np.errstate(over="ignore"):
        norms = row_norms(W)
        big = np.isinf(norms)
        if big.any():
            top = np.abs(W[big]).max(axis=1)
            norms[big] = top * row_norms(W[big] / top[:, None])
    return norms


def dense_hessian(obj: Objective, w, batch: BatchSpec = FULL_BATCH, h: float | None = None) -> np.ndarray:
    """Column-by-column Hessian, symmetrized; oracle use only (n <= 50)."""
    w = as_vector(w)
    n = w.size
    if n > 50:
        raise ValueError("dense_hessian is limited to n <= 50")
    H = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        H[:, i] = hvp(obj, w, e, batch, h)
    return (H + H.T) / 2.0


@dataclass(frozen=True)
class EigEstimate:
    lambda_max: float
    iterations_used: int
    residual: float


POWER_MAX_ITERS = 200
POWER_TOL = 1e-6


def power_iteration(
    obj: Objective,
    w,
    batch: BatchSpec = FULL_BATCH,
    max_iters: int = POWER_MAX_ITERS,
    tol: float = POWER_TOL,
    seed: int = 0,
) -> EigEstimate:
    """Dominant (largest-magnitude) Hessian eigenvalue from a seeded start.

    Iterates v <- Hv/|Hv| until the Rayleigh quotient's relative change drops
    below tol. A vanishing Hv gives 0; a probe off the domain raises DomainError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be > 0")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    (est,) = _power_rows(obj, as_vector(w)[None, :], seed, batch, max_iters, tol)
    if isinstance(est, Exception):
        raise est
    return est


def _power_rows(
    obj: Objective,
    W: np.ndarray,
    seed: int,
    batch: BatchSpec = FULL_BATCH,
    max_iters: int = POWER_MAX_ITERS,
    tol: float = POWER_TOL,
) -> list[EigEstimate | Exception]:
    """``power_iteration`` of each row of a (K, d) stack of finite points, as one iteration.

    Every row starts from the seed's direction and keeps its own iteration
    count and residual; each step makes one ``hvp`` call on the rows still
    iterating, and each row's estimate is its ``power_iteration``, bit for
    bit. A row whose stacked Hv is not finite is redone by the point ``hvp``.
    Each step ends its rows in one pass: a row whose point ``hvp`` raised
    fails, the exception its entry even at the cap, and any other row ends
    flat (Hv = 0), converged (residual < tol) or at max_iters.
    """
    rng = np.random.default_rng([seed, SEED_STREAM_EIG])
    v = rng.standard_normal(W.shape[1])
    V = np.tile(v / l2_norm(v), (len(W), 1))
    # hvp's step times |v|; taken once, since a strided row's norm may round
    # otherwise than the contiguous copy that dropping finished rows makes
    scale = 1e-4 * (1.0 + _step_norms(W))
    estimates: list[EigEstimate | Exception | None] = [None] * len(W)
    rows = np.arange(len(W))  # the rows still iterating, and their W, V, scale and last quotient
    lam_prev = math.inf  # so the first residual is inf
    for k in range(1, max_iters + 1):
        h = (scale / row_norms(V))[:, None]
        Hv = hvp(obj, W, V, batch, h)
        failed = {}
        for j in np.flatnonzero(~np.isfinite(Hv).all(axis=1)).tolist():
            try:
                Hv[j] = hvp(obj, W[j], V[j], batch, float(h[j, 0]))
            except (DomainError, ArithmeticError) as exc:  # what a stack row reads as NaN
                failed[j] = exc
        lam = np.vecdot(V, Hv)
        norm = row_norms(Hv)
        residual = np.abs(lam - lam_prev) / np.maximum(np.abs(lam), 1e-300)
        stop = (norm == 0.0) | (residual < tol)
        if k == max_iters:
            stop[:] = True
        elif failed:
            stop[list(failed)] = True
        for j in np.flatnonzero(stop).tolist():
            if j in failed:
                estimates[rows[j]] = failed[j]
            elif norm[j] == 0.0:
                estimates[rows[j]] = EigEstimate(0.0, k, 0.0)
            else:
                estimates[rows[j]] = EigEstimate(float(lam[j]), k, float(residual[j]))
        if stop.all():
            break
        if stop.any():
            go = ~stop
            rows, W, scale, Hv, norm, lam = rows[go], W[go], scale[go], Hv[go], norm[go], lam[go]
        V = Hv / norm[:, None]
        lam_prev = lam
    return estimates


def regret_curve(traj: Trajectory, obj: Objective, w_star, batch_at=None) -> np.ndarray:
    """Prefix sums of l_t(w_t) - l_t(w*) on each step's own batch.

    batch_at maps a step number to its BatchSpec; omit it for full-batch
    runs. Per-step losses come from the trajectory records, so the curve is
    reproducible bitwise from the run's seeds.
    """
    w_star = as_vector(w_star, dim=obj.dim)
    increments = np.empty(len(traj))
    for i, rec in enumerate(traj.records):
        batch = batch_at(rec.t) if batch_at is not None else FULL_BATCH
        increments[i] = rec.loss - obj.loss(w_star, batch)
    return np.cumsum(increments)


def min_grad_norm_curve(traj: Trajectory) -> np.ndarray:
    """Running minimum of the squared recorded gradient norms."""
    sq = traj.grad_norms() ** 2
    return np.minimum.accumulate(sq)


@dataclass(frozen=True)
class GenBoundInputs:
    """Inputs to the weighted-loss generalization bound."""

    vc_dim: int
    sample_count: int
    param_dim: int
    rho: float
    gamma: float
    delta: float
    weight_norm: float
    empirical_wsam_loss: float

    def __post_init__(self):
        if self.vc_dim < 1:
            raise ValueError("vc_dim must be >= 1")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")
        if self.param_dim < 1:
            raise ValueError("param_dim must be >= 1")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError("rho must be finite and > 0")
        gamma_coefficients(self.gamma)  # raises unless gamma is in [0,1)
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0,1)")
        if not (math.isfinite(self.weight_norm) and self.weight_norm >= 0.0):
            raise ValueError("weight_norm must be finite and >= 0")
        if not 0.0 <= self.empirical_wsam_loss <= 1.0:
            raise ValueError("empirical_wsam_loss must be in [0,1]")
        if math.e * self.sample_count <= self.vc_dim:
            raise ValueError("need e*sample_count > vc_dim so the capacity log stays positive")


def generalization_bound(inp: GenBoundInputs) -> float:
    """Population-loss upper bound: empirical weighted loss plus two deviations."""
    d, m, n = inp.vc_dim, inp.sample_count, inp.param_dim
    c1 = 8.0 * d * math.log(math.e * m / d) + 2.0 * math.log(4.0 / inp.delta)
    ratio = (inp.weight_norm / inp.rho) ** 2 * (1.0 + math.sqrt(math.log(m) / n)) ** 2
    c2 = n * math.log1p(ratio)
    c3 = 4.0 * math.log(m / inp.delta) + 8.0 * math.log(6.0 * m + 3.0 * n)
    c_adv, c_clean = gamma_coefficients(inp.gamma)
    first = 2.0 * abs(c_clean) * math.sqrt(c1 / m)
    second = c_adv * math.sqrt((c2 + c3) / (m - 1.0))
    return inp.empirical_wsam_loss + first + second


@dataclass(frozen=True)
class ToyMinima:
    sharp_w: np.ndarray
    sharp_loss: float
    flat_w: np.ndarray
    flat_loss: float


def _locate_toy_minima() -> ToyMinima:
    """Locate both toy-landscape minima by plain descent (step 2) from coarse basin guesses.

    The basin with the lower loss is the sharp one.
    """
    obj = ToyLandscape()
    candidates = []
    for start in ((-16.8, 12.8), (19.8, 29.9)):
        w = np.array(start)
        for _ in range(10_000):
            w = w - 2.0 * obj.grad(w)
        candidates.append((w, toy_loss(w)))
    candidates.sort(key=lambda pair: pair[1])
    (sharp_w, sharp_loss), (flat_w, flat_loss) = candidates
    return ToyMinima(sharp_w, sharp_loss, flat_w, flat_loss)


@functools.lru_cache(maxsize=1)
def toy_minima() -> ToyMinima:
    """Both toy-landscape minima: frozen constants, re-derived by a test.

    They are what ``_locate_toy_minima`` finds with 10^4 descent steps from
    each basin, to all 17 digits.
    """
    return ToyMinima(
        sharp_w=np.array([-16.804743956698722, 12.802543531112136]),
        sharp_loss=0.2752296543465072,
        flat_w=np.array([19.810047356402404, 29.93662042632588]),
        flat_loss=0.3564469282953429,
    )


def classify_minimum(w_final) -> str:
    """Nearest catalogued toy minimum; ties go to the sharp one."""
    w = as_vector(w_final, dim=2)
    minima = toy_minima()
    d_sharp = l2_norm(w - minima.sharp_w)
    d_flat = l2_norm(w - minima.flat_w)
    return SHARP if d_sharp <= d_flat else FLAT
