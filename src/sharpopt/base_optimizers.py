"""Base update rules (sgd, sgdm, adam) as direction + diagonal preconditioner.

Each consumes one gradient per step and produces the pair (m, B) so the
outer step is always ``w - alpha * B^{-1} m``, whatever the base is.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import IDENTITY, DiagPrecond, as_vector, precond_solve

SGD = "sgd"
SGDM = "sgdm"
ADAM = "adam"
BASE_KINDS = (SGD, SGDM, ADAM)


@dataclass(frozen=True)
class BaseOptConfig:
    kind: str = SGDM
    momentum_coeff: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps_adam: float = 1e-8

    def __post_init__(self):
        if self.kind not in BASE_KINDS:
            raise ValueError(f"base kind must be one of {BASE_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.momentum_coeff < 1.0:
            raise ValueError("momentum_coeff must be in [0, 1)")
        if not 0.0 <= self.beta1 < 1.0:
            raise ValueError("beta1 must be in [0, 1)")
        if not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta2 must be in [0, 1)")
        if not self.eps_adam > 0.0:
            raise ValueError("eps_adam must be > 0")


@dataclass
class BaseOptState:
    """Mutable per-run buffers; created fresh for every optimization run."""

    dim: int
    step_count: int = 0
    momentum_buf: np.ndarray = field(init=False)
    adam_m: np.ndarray = field(init=False)
    adam_v: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        self.momentum_buf = np.zeros(self.dim)
        self.adam_m = np.zeros(self.dim)
        self.adam_v = np.zeros(self.dim)


def compute_direction(
    state: BaseOptState, cfg: BaseOptConfig, g
) -> tuple[np.ndarray, DiagPrecond]:
    """Advance the state on gradient g; return the update direction and B."""
    g = as_vector(g, dim=state.dim)
    state.step_count += 1

    if cfg.kind == SGD:
        return g, IDENTITY

    if cfg.kind == SGDM:
        # plain accumulating momentum: m_t = coeff * m_{t-1} + g_t
        state.momentum_buf = cfg.momentum_coeff * state.momentum_buf + g
        return state.momentum_buf.copy(), IDENTITY

    t = state.step_count
    state.adam_m = cfg.beta1 * state.adam_m + (1.0 - cfg.beta1) * g
    state.adam_v = cfg.beta2 * state.adam_v + (1.0 - cfg.beta2) * g * g
    m_hat = state.adam_m / (1.0 - cfg.beta1**t)
    v_hat = state.adam_v / (1.0 - cfg.beta2**t)
    return m_hat, DiagPrecond(np.sqrt(v_hat) + cfg.eps_adam)


def apply_update(w, alpha_t: float, m, precond: DiagPrecond) -> np.ndarray:
    """One descent step w - alpha_t * B^{-1} m."""
    w = as_vector(w)
    m = as_vector(m, dim=w.size)
    if not np.isfinite(alpha_t):
        raise ValueError("step size must be finite")
    return w - alpha_t * precond_solve(precond, m)
