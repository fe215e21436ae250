"""Dense 64-bit vector arithmetic shared by every optimizer step.

Every reduction, ``dot``, ``l2_norm`` and ``row_norms``, goes through
``np.vecdot``, which gives each row of a stack the bits it gives that row
alone, on any CPU; a strided row may round otherwise than a contiguous copy
of it. Repeated runs give bitwise-identical results on the same machine,
numpy/BLAS build and CPU features: the level numpy's SIMD loops dispatch to
can change the last bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
INVERSE_SQRT = "inverse-sqrt"


class DomainError(ValueError):
    """A point left the domain where a value is defined (non-finite entries, say)."""


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
        raise DomainError("vector entries must be finite")
    return v


def _check_same_dim(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")


def dot(u, v) -> float:
    _check_same_dim(u, v)
    return float(np.vecdot(u, v))


def l2_norm(v) -> float:
    return math.sqrt(np.vecdot(v, v))


def row_norms(v) -> np.ndarray:
    """Euclidean norm of a vector (0-d) or of each row of a (K, d) stack (K,)."""
    return np.sqrt(np.vecdot(v, v))


@dataclass(frozen=True)
class DiagPrecond:
    """Diagonal preconditioner with strictly positive entries.

    ``diag=None`` marks the exact identity: a solve returns the input
    unchanged, bit for bit, so plain-gradient steps incur no division.
    The diagonal may be a vector or one row per row of a (K, d) stack; a
    non-finite row is the caller's to catch, so one bad row never fails a stack.
    """

    diag: np.ndarray | None = None

    def __post_init__(self):
        d = self.diag
        if d is None:
            return
        if not (type(d) is np.ndarray and d.dtype == np.float64):
            d = np.asarray(d, dtype=np.float64)
            object.__setattr__(self, "diag", d)
        if (d <= 0.0).any():
            raise ValueError("preconditioner diagonal entries must be > 0")


IDENTITY = DiagPrecond()


def precond_solve(b: DiagPrecond, m: np.ndarray) -> np.ndarray:
    if b.diag is None:
        return m
    _check_same_dim(b.diag, m)
    return m / b.diag


def holds(rule) -> bool:
    """A range rule's verdict: a bool on a real, or an array of them on a column."""
    return rule if type(rule) is bool else bool(rule.all())


@dataclass(frozen=True)
class Schedule:
    """Per-step schedule: ``base`` (constant) or ``base / sqrt(t)``, t >= 1.

    ``base`` is a real, or a (K, 1) column of reals for a stack of K runs.
    """

    kind: str
    base: float | np.ndarray

    def __post_init__(self):
        if self.kind not in (CONSTANT, INVERSE_SQRT):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # base 0 is allowed so a disabled perturbation radius flows through
        if not holds((abs(self.base) < math.inf) & (self.base >= 0.0)):
            raise ValueError(f"schedule base must be a finite nonnegative real, got {self.base!r}")

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
