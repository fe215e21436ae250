"""Dense 64-bit vector arithmetic shared by every optimizer step.

``l2_norm`` and ``dot`` reduce with ``np.matmul``, so repeated runs give
bitwise-identical results on the same machine and numpy/BLAS build.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
INVERSE_SQRT = "inverse-sqrt"


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally checking its dimension.

    A 1-D float64 ndarray is returned as is, after the size and finiteness
    checks; anything else goes through ``np.asarray`` first.
    """
    v = values
    if not (type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64):
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector with at least one entry, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _check_same_dim(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")


def dot(u, v) -> float:
    _check_same_dim(u, v)
    return float(np.matmul(u, v))


def l2_norm(v) -> float:
    # np.matmul, unlike np.dot, keeps the GIL for small vectors, so threads
    # of a sweep do not hand it over on every norm
    return math.sqrt(np.matmul(v, v))


def linf_norm(v) -> float:
    out = 0.0
    for x in v:
        out = max(out, abs(x))
    return float(out)


@dataclass(frozen=True)
class DiagPrecond:
    """Diagonal preconditioner with strictly positive entries.

    ``diag=None`` marks the exact identity: solves and applies return the
    input unchanged, bit for bit, so plain-gradient steps incur no division.
    """

    diag: np.ndarray | None = None

    def __post_init__(self):
        if self.diag is not None:
            d = as_vector(self.diag)
            if np.any(d <= 0.0):
                raise ValueError("preconditioner diagonal entries must be > 0")
            object.__setattr__(self, "diag", d)

    @property
    def is_identity(self) -> bool:
        return self.diag is None


IDENTITY = DiagPrecond()


def precond_apply(b: DiagPrecond, m: np.ndarray) -> np.ndarray:
    if b.diag is None:
        return m
    _check_same_dim(b.diag, m)
    return m * b.diag


def precond_solve(b: DiagPrecond, m: np.ndarray) -> np.ndarray:
    if b.diag is None:
        return m
    _check_same_dim(b.diag, m)
    return m / b.diag


@dataclass(frozen=True)
class Schedule:
    """Per-step scalar schedule: ``base`` (constant) or ``base / sqrt(t)``, t >= 1."""

    kind: str
    base: float

    def __post_init__(self):
        if self.kind not in (CONSTANT, INVERSE_SQRT):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # base 0 is allowed so a disabled perturbation radius flows through
        if not (math.isfinite(self.base) and self.base >= 0.0):
            raise ValueError("schedule base must be a finite nonnegative real")

    def value_at(self, t: int) -> float:
        if t < 1:
            raise ValueError("schedule steps are 1-based")
        if self.kind == CONSTANT:
            return self.base
        return self.base / math.sqrt(t)


def constant(base: float) -> Schedule:
    return Schedule(CONSTANT, base)


def inverse_sqrt(base: float) -> Schedule:
    return Schedule(INVERSE_SQRT, base)
