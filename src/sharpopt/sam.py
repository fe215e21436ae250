"""Sharpness-aware stepping rules over a pluggable base optimizer.

Four modes share one step skeleton, ``_step``. Per step, "sam" perturbs by
the ascent direction and hands the perturbed gradient g to the base; "wsam"
hands the clean gradient g_tilde to the base and adds the weighted sharpness
correction gamma/(1-gamma) * (g - g_tilde) outside it, unpreconditioned;
"coupled" hands the base the single blended gradient
h = gamma/(1-gamma) * g + (1-2gamma)/(1-gamma) * g_tilde; "vanilla" skips
the perturbation entirely. ``step_sgd_wsam`` is the base-free closed form
of the blended step. Both gradients of a step always use the same batch.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_optimizers import BaseOptConfig, BaseOptState, apply_update, compute_direction
from .core import IDENTITY, Schedule, as_vector, constant, l2_norm, precond_solve
from .objectives import FULL_BATCH, BatchSpec, Objective

VANILLA = "vanilla"
SAM = "sam"
WSAM = "wsam"
COUPLED = "coupled"
MODES = (VANILLA, SAM, WSAM, COUPLED)


@dataclass(frozen=True)
class SamConfig:
    """Stepping hyperparameters; vanilla mode ignores rho, gamma, adaptive."""

    alpha_schedule: Schedule
    mode: str = SAM
    rho: float = 0.0
    rho_schedule: Schedule | None = None
    gamma: float = 0.0
    sam_eps: float = 1e-12
    adaptive: bool = False
    clip_norm: float | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.rho >= 0.0:
            raise ValueError("rho must be >= 0")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0,1)")
        if not self.sam_eps > 0.0:
            raise ValueError("sam_eps must be > 0")
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ValueError("clip_norm must be > 0 when set")
        if self.rho_schedule is None:
            object.__setattr__(self, "rho_schedule", constant(self.rho))

    def alpha_at(self, t: int) -> float:
        return self.alpha_schedule.value_at(t)

    def rho_at(self, t: int) -> float:
        return self.rho_schedule.value_at(t)


@dataclass(frozen=True)
class StepOutput:
    new_w: np.ndarray
    loss_at_w: float
    grad_tilde_norm: float
    sharpness_term: float | None = None


def gamma_coefficients(gamma: float) -> tuple[float, float]:
    """The pair (gamma/(1-gamma), (1-2gamma)/(1-gamma)); always sums to 1."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0,1)")
    return gamma / (1.0 - gamma), (1.0 - 2.0 * gamma) / (1.0 - gamma)


def perturb(w, g_tilde, rho_t: float, eps: float, adaptive: bool = False) -> np.ndarray:
    """Ascent offset delta; norm-capped at rho_t in the standard rule."""
    w = as_vector(w)
    g_tilde = as_vector(g_tilde, dim=w.size)
    if rho_t < 0.0:
        raise ValueError("rho_t must be >= 0")
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    if adaptive:
        scaled = np.abs(w) * g_tilde
        return rho_t * (w * w * g_tilde) / (l2_norm(scaled) + eps)
    return rho_t * g_tilde / (l2_norm(g_tilde) + eps)


def clip_to_norm(g, max_norm: float | None) -> np.ndarray:
    """Scale g onto the max_norm ball; None or an in-ball g passes unchanged."""
    g = as_vector(g)
    if max_norm is None:
        return g
    if max_norm <= 0.0:
        raise ValueError("max_norm must be > 0")
    norm = l2_norm(g)
    if norm > max_norm:
        return g * (max_norm / norm)
    return g


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
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must be in [0,1)")
    coeff = gamma / (1.0 - gamma)
    return obj.loss(w, batch) + coeff * sharpness_estimate(obj, w, batch, rho_t, eps)


def _step(
    obj: Objective,
    w,
    batch: BatchSpec,
    state: BaseOptState | None,
    base_cfg: BaseOptConfig | None,
    sam_cfg: SamConfig,
    t: int,
    mode: str,
) -> StepOutput:
    """The one step skeleton; no base state means the identity base."""
    loss, g_tilde = obj.loss_grad(w, batch)
    fed, sharpness = g_tilde, None
    if mode != VANILLA:
        delta = perturb(w, g_tilde, sam_cfg.rho_at(t), sam_cfg.sam_eps, sam_cfg.adaptive)
        loss_adv, g = obj.loss_grad(as_vector(w) + delta, batch)
        sharpness = loss_adv - loss
        if mode == SAM:
            fed = g
        elif mode == COUPLED:
            c_adv, c_clean = gamma_coefficients(sam_cfg.gamma)
            fed = c_adv * g + c_clean * g_tilde
    fed = clip_to_norm(fed, sam_cfg.clip_norm)
    m, b = (fed, IDENTITY) if state is None else compute_direction(state, base_cfg, fed)
    if mode == WSAM:
        coeff = sam_cfg.gamma / (1.0 - sam_cfg.gamma)
        # the sharpness correction rides outside the base update: raw alpha_t,
        # no preconditioning, and never clipped
        direction = precond_solve(b, m) + coeff * (g - g_tilde)
        new_w = as_vector(w) - sam_cfg.alpha_at(t) * direction
    else:
        new_w = apply_update(w, sam_cfg.alpha_at(t), m, b)
    return StepOutput(new_w, loss, l2_norm(g_tilde), sharpness)


def step(
    obj: Objective,
    w,
    batch: BatchSpec,
    base_state: BaseOptState,
    base_cfg: BaseOptConfig,
    sam_cfg: SamConfig,
    t: int,
) -> StepOutput:
    """One step of sam_cfg.mode over the base optimizer."""
    return _step(obj, w, batch, base_state, base_cfg, sam_cfg, t, sam_cfg.mode)


def step_sgd_wsam(obj: Objective, w, batch: BatchSpec, sam_cfg: SamConfig, t: int) -> StepOutput:
    """Base-free blended step w - alpha_t * h; the stateless special case."""
    return _step(obj, w, batch, None, None, sam_cfg, t, COUPLED)
