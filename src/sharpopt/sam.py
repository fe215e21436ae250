"""Sharpness-aware stepping rules over a pluggable base optimizer.

Four modes share one step skeleton, ``step``. Per step, "sam" perturbs by
the ascent direction and hands the perturbed gradient g to the base; "wsam"
hands the clean gradient g_tilde to the base and adds the weighted sharpness
correction gamma/(1-gamma) * (g - g_tilde) outside it, unpreconditioned;
"coupled" hands the base the single blended gradient
h = gamma/(1-gamma) * g + (1-2gamma)/(1-gamma) * g_tilde; "vanilla" skips
the perturbation entirely. ``step_sgd_wsam`` is the base-free closed form
of the blended step: ``step`` in coupled mode with no base state. Both
gradients of a step always use the same batch.

The step is row-wise: w may be one point or a (K, d) stack of K runs that
share the batch, with the ``SamConfig`` holding their gamma, rho and alpha
as (K, 1) columns. Each row gets the bits it would get alone. A step does
not re-check its points: the run loop checks shapes once and each new point
for finiteness.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .base_optimizers import BaseOptConfig, BaseOptState, apply_update, compute_direction
from .core import IDENTITY, Schedule, as_vector, constant, holds, precond_solve, row_norms
from .objectives import FULL_BATCH, BatchSpec, Objective

VANILLA = "vanilla"
SAM = "sam"
WSAM = "wsam"
COUPLED = "coupled"
# mode -> the step parameters its arithmetic reads; runs of one mode that
# agree on these step alike, whatever the others hold
READS = {
    VANILLA: ("alpha",),
    SAM: ("rho", "alpha"),
    WSAM: ("gamma", "rho", "alpha"),
    COUPLED: ("gamma", "rho", "alpha"),
}
MODES = tuple(READS)


@dataclass(frozen=True)
class SamConfig:
    """Stepping hyperparameters.

    READS lists which of gamma, rho and alpha each mode reads; a value its
    mode does not read changes no bit of a step (vanilla ignores adaptive
    too), so a sweep steps cells that differ only there as one run. gamma,
    rho and the schedules' bases are reals, or (K, 1) columns of one value
    per row of a stack.
    """

    alpha_schedule: Schedule
    mode: str = SAM
    rho: float | np.ndarray = 0.0
    rho_schedule: Schedule | None = None
    gamma: float | np.ndarray = 0.0
    sam_eps: float = 1e-12
    adaptive: bool = False
    clip_norm: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        rho_default = constant(self.rho)  # raises unless rho is a finite real >= 0
        gamma_coefficients(self.gamma)  # raises unless gamma is in [0,1)
        if not self.sam_eps > 0.0:
            raise ValueError("sam_eps must be > 0")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError("clip_norm must be > 0 when set")
        if self.rho_schedule is None:
            object.__setattr__(self, "rho_schedule", rho_default)

    @functools.cached_property
    def coefficients(self) -> tuple:
        """gamma_coefficients of gamma, real or column."""
        return gamma_coefficients(self.gamma)


@dataclass(frozen=True)
class StepOutput:
    """What a step saw and produced; per-row arrays when it stepped a stack.

    perturbed_w is the point w + delta of the second evaluation (None for vanilla).
    """

    new_w: np.ndarray
    loss_at_w: float | np.ndarray
    grad_tilde_norm: float | np.ndarray
    sharpness_term: float | np.ndarray | None = None
    perturbed_w: np.ndarray | None = None


def gamma_coefficients(gamma: float | np.ndarray) -> tuple:
    """The pair (gamma/(1-gamma), (1-2gamma)/(1-gamma)); always sums to 1.

    gamma is a real or a (K, 1) column.
    """
    if not holds((gamma >= 0.0) & (gamma < 1.0)):
        raise ValueError("gamma must be in [0,1)")
    return gamma / (1.0 - gamma), (1.0 - 2.0 * gamma) / (1.0 - gamma)


def _norms(v: np.ndarray) -> np.ndarray:
    """row_norms as a column, to divide the rows of v by."""
    return row_norms(v)[..., None]


def perturb(w, g_tilde, rho_t, eps: float, adaptive: bool = False) -> np.ndarray:
    """Ascent offset delta, row by row; norm-capped at rho_t in the standard rule."""
    if np.less(rho_t, 0.0).any():
        raise ValueError("rho_t must be >= 0")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if adaptive:
        scaled = np.abs(w) * g_tilde
        return rho_t * (w * w * g_tilde) / (_norms(scaled) + eps)
    return rho_t * g_tilde / (_norms(g_tilde) + eps)


def clip_to_norm(g, max_norm: float | None) -> np.ndarray:
    """Scale each row of g onto the max_norm ball; None or an in-ball g passes unchanged."""
    if max_norm is None:
        return g
    if max_norm <= 0.0:
        raise ValueError("max_norm must be > 0")
    norm = _norms(g)
    over = norm > max_norm
    if not over.any():
        return g
    return np.where(over, g * (max_norm / norm), g)


def sharpness_estimate(
    obj: Objective, w, batch: BatchSpec = FULL_BATCH, rho_t: float = 0.05, eps: float = 1e-12
) -> float:
    """First-order sharpness proxy L(w + delta) - L(w) at the ascent point."""
    loss, g_tilde = obj.loss_grad(w, batch)
    delta = perturb(w, g_tilde, rho_t, eps, adaptive=False)
    return obj.loss(as_vector(w) + delta, batch) - loss


def wsam_loss(
    obj: Objective,
    w,
    batch: BatchSpec = FULL_BATCH,
    rho_t: float = 0.05,
    eps: float = 1e-12,
    gamma: float = 0.5,
) -> float:
    """Diagnostic composite loss L(w) + gamma/(1-gamma) * sharpness."""
    coeff = gamma_coefficients(gamma)[0]
    return obj.loss(w, batch) + coeff * sharpness_estimate(obj, w, batch, rho_t, eps)


def step(
    obj: Objective,
    w,
    batch: BatchSpec,
    base_state: BaseOptState | None,
    base_cfg: BaseOptConfig | None,
    sam_cfg: SamConfig,
    t: int,
) -> StepOutput:
    """One step of sam_cfg.mode over the base optimizer; no base state means the identity base."""
    mode = sam_cfg.mode
    loss, g_tilde = obj.loss_grad(w, batch)
    fed, sharpness, w_adv = g_tilde, None, None
    if mode != VANILLA:
        rho_t = sam_cfg.rho_schedule.value_at(t)
        w_adv = w + perturb(w, g_tilde, rho_t, sam_cfg.sam_eps, sam_cfg.adaptive)
        loss_adv, g = obj.loss_grad(w_adv, batch)
        sharpness = loss_adv - loss
        if mode == SAM:
            fed = g
        elif mode == COUPLED:
            c_adv, c_clean = sam_cfg.coefficients
            fed = c_adv * g + c_clean * g_tilde
    fed = clip_to_norm(fed, sam_cfg.clip_norm)
    m, b = (fed, IDENTITY) if base_state is None else compute_direction(base_state, base_cfg, fed)
    if mode == WSAM:
        # the sharpness correction rides outside the base update: raw alpha_t,
        # no preconditioning, and never clipped
        m, b = precond_solve(b, m) + sam_cfg.coefficients[0] * (g - g_tilde), IDENTITY
    new_w = apply_update(w, sam_cfg.alpha_schedule.value_at(t), m, b)
    return StepOutput(new_w, loss, row_norms(g_tilde), sharpness, w_adv)


def step_sgd_wsam(obj: Objective, w, batch: BatchSpec, sam_cfg: SamConfig, t: int) -> StepOutput:
    """Base-free blended step w - alpha_t * h; the stateless special case."""
    if sam_cfg.mode != COUPLED:
        sam_cfg = replace(sam_cfg, mode=COUPLED)
    return step(obj, w, batch, None, None, sam_cfg, t)
