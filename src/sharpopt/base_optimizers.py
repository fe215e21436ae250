"""Base update rules (sgd, sgdm, adam) as direction + diagonal preconditioner.

Each consumes one gradient per step and produces the pair (m, B) so the
outer step is always ``w - alpha * B^{-1} m``, whatever the base is. All of
it works row-wise on a (K, d) stack of runs as well as on one vector: the
state buffers start as ``np.zeros(dim)`` and broadcast to the stack.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import IDENTITY, DiagPrecond, precond_solve

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

    def finite_rows(self) -> np.ndarray | bool:
        """Which rows of a stack still have a finite second moment (adam's B)."""
        return np.isfinite(self.adam_v).all(axis=-1) if self.adam_v.ndim == 2 else True


def compute_direction(
    state: BaseOptState, cfg: BaseOptConfig, g: np.ndarray
) -> tuple[np.ndarray, DiagPrecond]:
    """Advance the state on gradient g (a vector or a stack); return the direction and B."""
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


def apply_update(w, alpha_t, m: np.ndarray, precond: DiagPrecond) -> np.ndarray:
    """One descent step w - alpha_t * B^{-1} m; alpha_t is a real or a (K, 1) column."""
    if not np.isfinite(alpha_t).all():
        raise ValueError("step size must be finite")
    return w - alpha_t * precond_solve(precond, m)
