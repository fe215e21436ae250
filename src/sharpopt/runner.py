"""Seeded experiment execution, sweeps, and trajectory emission.

Seed streams: [seed, 0] initializes w, [seed, 1, t] draws step t's batch,
[seed, 2] synthesizes datasets, [seed, 3] starts power iteration. Every
stream is addressed independently, so runs replay bitwise on the same
machine and numpy/BLAS build.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .analysis import StepRecord, Trajectory, classify_minimum, power_iteration
from .base_optimizers import BaseOptState
from .config import RunConfig, SweepSpec
from .core import DomainError, l2_norm
from .objectives import (
    FULL_BATCH,
    SEED_STREAM_INIT,
    BatchSampler,
    Logistic,
    Objective,
    Quadratic,
    ToyLandscape,
)
from .sam import step

SNAPSHOT_DIM_LIMIT = 16


class NumericBlowup(RuntimeError):
    """A run left the finite domain; carries what was observed before that."""

    def __init__(self, message: str, failed_step: int, trajectory: Trajectory | None):
        super().__init__(message)
        self.failed_step = failed_step
        self.trajectory = trajectory

    @property
    def last_finite_record(self) -> StepRecord | None:
        if self.trajectory is None:
            return None
        return self.trajectory.records[-1]


def build_objective(cfg: RunConfig) -> Objective:
    spec = cfg.objective
    if spec.kind == "toy":
        return ToyLandscape()
    if spec.kind == "quadratic":
        return Quadratic(a=spec.a, centers=spec.centers)
    if spec.csv_path is not None:
        return Logistic.from_csv(spec.csv_path, noise_fraction=spec.noise_fraction, seed=cfg.seed)
    return Logistic.synthetic(
        spec.num_examples, spec.dim, seed=cfg.seed, noise_fraction=spec.noise_fraction
    )


def initial_w(cfg: RunConfig, obj: Objective) -> np.ndarray:
    if cfg.init is not None:
        return np.asarray(cfg.init, dtype=np.float64)
    rng = np.random.default_rng([cfg.seed, SEED_STREAM_INIT])
    return cfg.init_scale * rng.standard_normal(obj.dim)


def run(cfg: RunConfig, obj: Objective | None = None) -> Trajectory:
    """Execute cfg.steps steps; raises NumericBlowup when w or loss leaves R.

    Each record pairs step t's observables (loss and gradient norm at the
    pre-step point) with the iterate the step produced, so the last record's
    snapshot is the run's endpoint and an emitted CSV rebuilds the whole
    trajectory, final point included.
    """
    if obj is None:
        obj = build_objective(cfg)
    sam_cfg = cfg.sam_config()
    base_cfg = cfg.base_config()
    state = BaseOptState(dim=obj.dim)
    sampler = None
    if cfg.batch_size is not None:
        sampler = BatchSampler(
            seed=cfg.seed, batch_size=cfg.batch_size, num_examples=obj.num_examples
        )
    keep_w = obj.dim <= SNAPSHOT_DIM_LIMIT

    w = initial_w(cfg, obj)
    records: list[StepRecord] = []

    def partial() -> Trajectory | None:
        if not records:
            return None
        return Trajectory(records=tuple(records), final_w=records[-1].w if keep_w else w)

    for t in range(1, cfg.steps + 1):
        batch = sampler.batch_at(t) if sampler is not None else FULL_BATCH
        try:
            # overflow on a diverging run is reported below; the warning is noise
            with np.errstate(over="ignore", invalid="ignore"):
                out = step(obj, w, batch, state, base_cfg, sam_cfg, t)
        except DomainError as exc:
            raise NumericBlowup(
                f"step {t} left the objective's domain: {exc}", t, partial()
            ) from exc
        if not np.isfinite(out.loss_at_w) or not np.isfinite(out.new_w).all():
            raise NumericBlowup(f"non-finite iterate at step {t}", t, partial())
        records.append(
            StepRecord(
                t=t,
                loss=out.loss_at_w,
                grad_norm=out.grad_tilde_norm,
                sharpness=out.sharpness_term,
                w=out.new_w if keep_w else None,
            )
        )
        w = out.new_w
    return Trajectory(records=tuple(records), final_w=w)


@dataclass(frozen=True)
class SweepRow:
    gamma: float
    rho: float
    alpha: float
    seed: int
    status: str
    final_loss: float | None = None
    final_grad_norm: float | None = None
    lambda_max: float | None = None
    minimum: str | None = None


def sweep(cfg: RunConfig, spec: SweepSpec) -> list[SweepRow]:
    """One run per grid cell, in grid order; a diverging cell does not stop the rest.

    A cell is diverged when its run blows up, or when its final full-batch loss
    is non-finite or above the full-batch loss at its initial point.
    """
    gammas = spec.gammas or (cfg.gamma,)
    rhos = spec.rhos or (cfg.rho,)
    alphas = spec.alphas or (cfg.alpha,)
    seeds = spec.seeds or (cfg.seed,)
    cells = list(itertools.product(gammas, rhos, alphas, seeds))

    def one(cell) -> SweepRow:
        gamma, rho, alpha, seed = cell
        rcfg = replace(cfg, gamma=gamma, rho=rho, alpha=alpha, seed=seed, out=None)
        obj = build_objective(rcfg)
        try:
            traj = run(rcfg, obj)
        except NumericBlowup:
            return SweepRow(gamma, rho, alpha, seed, "diverged")
        loss, grad = obj.loss_grad(traj.final_w)
        if not math.isfinite(loss) or loss > obj.loss(initial_w(rcfg, obj)):
            return SweepRow(gamma, rho, alpha, seed, "diverged")
        lam = None
        if spec.eig:
            lam = power_iteration(obj, traj.final_w, seed=seed).lambda_max
        minimum = classify_minimum(traj.final_w) if rcfg.objective.kind == "toy" else None
        return SweepRow(gamma, rho, alpha, seed, "ok", loss, l2_norm(grad), lam, minimum)

    return [one(c) for c in cells]


def _fmt(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _fmt_json(x: float | None) -> str:
    return "null" if x is None else format(x, ".17g")


def _selected(traj: Trajectory, record_every: int):
    last_t = traj.records[-1].t
    return [r for r in traj.records if r.t % record_every == 0 or r.t == last_t]


def format_trajectory(traj: Trajectory, fmt: str = "csv", record_every: int = 1) -> str:
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    recs = _selected(traj, record_every)
    with_w = all(r.w is not None for r in recs)
    dim = recs[0].w.size if with_w else 0
    lines = []
    if fmt == "csv":
        header = "step,loss,grad_norm,sharpness"
        if with_w:
            header += "," + ",".join(f"w_{i}" for i in range(dim))
        lines.append(header)
        for r in recs:
            row = f"{r.t},{_fmt(r.loss)},{_fmt(r.grad_norm)},{_fmt(r.sharpness)}"
            if with_w:
                row += "," + ",".join(_fmt(x) for x in r.w)
            lines.append(row)
    elif fmt == "jsonl":
        for r in recs:
            parts = [
                f'"step": {r.t}',
                f'"loss": {_fmt_json(r.loss)}',
                f'"grad_norm": {_fmt_json(r.grad_norm)}',
                f'"sharpness": {_fmt_json(r.sharpness)}',
            ]
            if with_w:
                parts.extend(f'"w_{i}": {_fmt_json(x)}' for i, x in enumerate(r.w))
            lines.append("{" + ", ".join(parts) + "}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def format_sweep(rows: list[SweepRow], fmt: str = "csv") -> str:
    lines = []
    if fmt == "csv":
        lines.append("gamma,rho,alpha,seed,status,final_loss,final_grad_norm,lambda_max,minimum")
        for r in rows:
            lines.append(
                f"{_fmt(r.gamma)},{_fmt(r.rho)},{_fmt(r.alpha)},{r.seed},{r.status},"
                f"{_fmt(r.final_loss)},{_fmt(r.final_grad_norm)},{_fmt(r.lambda_max)},"
                f"{r.minimum or ''}"
            )
    elif fmt == "jsonl":
        for r in rows:
            minimum = "null" if r.minimum is None else f'"{r.minimum}"'
            lines.append(
                "{" + ", ".join([
                    f'"gamma": {_fmt_json(r.gamma)}',
                    f'"rho": {_fmt_json(r.rho)}',
                    f'"alpha": {_fmt_json(r.alpha)}',
                    f'"seed": {r.seed}',
                    f'"status": "{r.status}"',
                    f'"final_loss": {_fmt_json(r.final_loss)}',
                    f'"final_grad_norm": {_fmt_json(r.final_grad_norm)}',
                    f'"lambda_max": {_fmt_json(r.lambda_max)}',
                    f'"minimum": {minimum}',
                ]) + "}"
            )
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def emit(text: str, path: str | None = None) -> int:
    """Write already-formatted output; path None goes to stdout. Returns bytes."""
    data = text.encode("utf-8")
    if path is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)
    return len(data)


def read_trajectory_csv(path: str) -> Trajectory:
    """Rebuild a Trajectory from an emitted CSV with w columns."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip()]
    header = lines[0][1].split(",")
    if header[:4] != ["step", "loss", "grad_norm", "sharpness"]:
        raise ValueError("not a trajectory CSV")
    w_cols = len(header) - 4
    if w_cols < 1:
        raise ValueError("trajectory CSV has no w columns to rebuild from")
    records = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(
                f"{path} line {n}: {len(parts)} fields, the header has {len(header)}"
            )
        records.append(
            StepRecord(
                t=int(parts[0]),
                loss=float(parts[1]),
                grad_norm=float(parts[2]),
                sharpness=float(parts[3]) if parts[3] else None,
                w=np.array([float(x) for x in parts[4:]]),
            )
        )
    return Trajectory(records=tuple(records), final_w=records[-1].w)
