"""Seeded experiment execution, sweeps, and trajectory emission.

Seed streams: [seed, 0] initializes w, [seed, 1, t] draws step t's batch,
[seed, 2] synthesizes datasets, [seed, 3] starts power iteration. Every
stream is addressed independently, so runs replay bitwise on the same
machine, numpy/BLAS build and CPU features; numpy's SIMD dispatch level can
change the last bits of an array objective's output, never a sweep row's
identity with its run.

One step loop, ``_advance``, advances one config's runs for K (gamma, rho,
alpha) cells as a (K, d) stack: one ``step`` call per step for the whole
stack. ``run`` is its one-row case. ``sweep`` groups its grid cells by
seed and advances each group's distinct runs together, one row per run:
cells that differ only in a value their mode does not read (``sam.READS``;
gamma for sam, gamma and rho for vanilla) are one run, stepped and probed
once. Since every row is evaluated with the point arithmetic, each sweep
row equals the ``run`` of its cell bit for bit. A row that fails stays in
the stack, frozen at its last finite point, while the others carry on, so
the stack keeps its K rows for the whole run and only ``_advance`` knows
that a row can fail. With eig, a seed group's ok rows run one stacked power
iteration: each row's estimate is ``power_iteration`` of its endpoint bit
for bit, or None where that raises.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import EigEstimate, StepRecord, Trajectory, _power_rows, classify_minimum
from .base_optimizers import BaseOptState
from .config import FORMATS, RunConfig, SweepSpec
from .core import Schedule, as_vector, l2_norm
from .objectives import (
    FULL_BATCH,
    SEED_STREAM_INIT,
    BatchSampler,
    Logistic,
    Objective,
    Quadratic,
    RowByRow,
    ToyLandscape,
)
from .sam import READS, StepOutput, step

SNAPSHOT_DIM_LIMIT = 16


class NumericBlowup(RuntimeError):
    """A run left the finite domain; carries its failed step and its last finite record, if any."""

    def __init__(self, message: str, failed_step: int, last_finite_record: StepRecord | None):
        super().__init__(message)
        self.failed_step = failed_step
        self.last_finite_record = last_finite_record


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


def _start(cfg: RunConfig, obj: Objective) -> np.ndarray:
    """cfg's start point; a start outside obj's domain raises DomainError, an input fault."""
    w0 = as_vector(initial_w(cfg, obj), dim=obj.dim)
    obj.check_domain(w0)
    return w0


def _failure(out: StepOutput, k: int, t: int) -> str:
    """Why row k of a step's output failed, as run reports it."""
    if not np.isfinite(out.loss_at_w[k]):
        return f"non-finite loss at step {t}"
    if out.perturbed_w is not None and not np.isfinite(out.perturbed_w[k]).all():
        return f"step {t} left the objective's domain: vector entries must be finite"
    if out.sharpness_term is not None and not np.isfinite(out.sharpness_term[k]):
        return f"non-finite loss at the perturbed point at step {t}"
    return f"non-finite iterate at step {t}"


def _advance(cfg: RunConfig, cells: list[tuple], obj: Objective, w0: np.ndarray, on_step=None):
    """The one step loop: one run of cfg per (gamma, rho, alpha) cell, from w0, as a (K, d) stack.

    A row fails at step t when its loss there, its perturbed point, its new
    point or its base state is not finite; it then stays in the stack, frozen
    at its last finite point, while the others carry on. on_step(t, out, ok)
    sees every step's output and which rows are still live after it. Returns
    the final points and, per row, None or (failed step, reason).
    """
    if not obj.accepts_stacks:
        obj = RowByRow(obj)
    gamma, rho, alpha = (np.array(col, dtype=np.float64).reshape(-1, 1) for col in zip(*cells))
    sam_cfg = replace(cfg.sam_config(), gamma=gamma, rho=rho,
                      rho_schedule=Schedule(cfg.rho_schedule, rho),
                      alpha_schedule=Schedule(cfg.alpha_schedule, alpha))
    base_cfg = cfg.base_config()
    state = BaseOptState(dim=obj.dim)
    sampler = None
    if cfg.batch_size is not None:
        sampler = BatchSampler(
            seed=cfg.seed, batch_size=cfg.batch_size, num_examples=obj.num_examples
        )
    W = np.tile(w0, (len(cells), 1))
    live = np.ones(len(cells), dtype=bool)
    failures: list[tuple[int, str] | None] = [None] * len(cells)

    # a failing or frozen row overflows or meets NaN; only live rows are read
    with np.errstate(all="ignore"):
        for t in range(1, cfg.steps + 1):
            batch = sampler.batch_at(t) if sampler is not None else FULL_BATCH
            out = step(obj, W, batch, state, base_cfg, sam_cfg, t)
            ok = live & np.isfinite(out.loss_at_w) & np.isfinite(out.new_w).all(axis=1)
            ok &= state.finite_rows()
            if on_step is not None:
                on_step(t, out, ok)
            if ok.all():
                W = out.new_w
                continue
            for k in np.flatnonzero(live & ~ok):
                failures[k] = (t, _failure(out, k, t))
            live = ok
            if not live.any():
                break
            W = np.where(live[:, None], out.new_w, W)
    return W, failures


def run(cfg: RunConfig, obj: Objective | None = None) -> Trajectory:
    """Execute cfg.steps steps; raises NumericBlowup when w or loss leaves R.

    Each record pairs step t's observables (loss and gradient norm at the
    pre-step point) with the iterate the step produced, so the last record's
    snapshot is the run's endpoint and an emitted CSV rebuilds the whole
    trajectory, final point included.
    """
    if obj is None:
        obj = build_objective(cfg)
    keep_w = obj.dim <= SNAPSHOT_DIM_LIMIT
    records: list[StepRecord] = []

    def record(t: int, out: StepOutput, ok: np.ndarray) -> None:
        if ok[0]:
            sharpness = out.sharpness_term
            records.append(
                StepRecord(
                    t=t,
                    loss=float(out.loss_at_w[0]),
                    grad_norm=float(out.grad_tilde_norm[0]),
                    sharpness=None if sharpness is None else float(sharpness[0]),
                    w=out.new_w[0] if keep_w else None,
                )
            )

    cell = (cfg.gamma, cfg.rho, cfg.alpha)
    final, (failure,) = _advance(cfg, [cell], obj, _start(cfg, obj), record)
    if failure is not None:
        failed_step, reason = failure
        raise NumericBlowup(reason, failed_step, records[-1] if records else None)
    return Trajectory(records=tuple(records), final_w=final[0])


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
    """One row per grid cell, in grid order; a diverging cell does not stop the rest.

    Every seed group's start is checked before the first group steps, so a
    start outside the domain raises DomainError before any step. The cells
    of one seed share their objective and step together as one stack, one
    row per distinct run: cells that agree on the values their mode reads
    (``sam.READS``) are one run, stepped, evaluated and probed once as its
    first cell, and each such cell's row reports that run under its own
    labels. A run is diverged when it blows up, or when its final
    full-batch loss is non-finite or above the full-batch loss at its
    initial point. With eig, an ok run whose probe leaves the domain has
    lambda_max None.
    """
    axes = [values or (getattr(cfg, field),) for field, values in spec.grids.items()]
    # (gamma, rho, alpha, seed) cells; spec has checked its values with cfg's rules
    cells = list(itertools.product(*axes))
    groups: dict[int, list[int]] = {}
    for i, cell in enumerate(cells):
        groups.setdefault(cell[3], []).append(i)
    read = [field in READS[cfg.mode] for field in ("gamma", "rho", "alpha")]
    seed_cfgs = [replace(cfg, seed=seed) for seed in groups]
    # a start reads only the objective's dimension and domain, which no seed changes
    obj = build_objective(seed_cfgs[0])
    starts = [_start(seed_cfg, obj) for seed_cfg in seed_cfgs]
    rows: list[SweepRow | None] = [None] * len(cells)
    for n, (seed_cfg, group, w0) in enumerate(zip(seed_cfgs, groups.values(), starts)):
        if n > 0:
            obj = build_objective(seed_cfg)
        # a cell's run is its values with the ones its mode does not read masked
        # out; hex tells -0.0 from 0.0, which a step can tell apart
        runs: dict[tuple, list[int]] = {}  # each run's cells, in grid order
        for i in group:
            key = tuple(float(x).hex() if r else None for r, x in zip(read, cells[i]))
            runs.setdefault(key, []).append(i)
        final, failures = _advance(seed_cfg, [cells[same[0]][:3] for same in runs.values()],
                                   obj, w0)
        start_loss = obj.loss(w0)
        # a final point outside the domain reads NaN here, so its run is diverged
        with np.errstate(all="ignore"):
            losses, grads = obj.loss_grad(final)
        ok = [failure is None and math.isfinite(loss) and not loss > start_loss
              for loss, failure in zip(losses.tolist(), failures)]
        # one stacked power iteration over the group's ok runs
        eig = iter(_power_rows(obj, final[ok], seed_cfg.seed) if spec.eig and any(ok) else ())
        for same, w, loss, grad, good in zip(runs.values(), final, losses.tolist(), grads, ok):
            outcome = ("diverged",)
            if good:
                est = next(eig, None)
                lam = est.lambda_max if isinstance(est, EigEstimate) else None
                minimum = classify_minimum(w) if cfg.objective.kind == "toy" else None
                outcome = ("ok", loss, l2_norm(grad), lam, minimum)
            for i in same:
                rows[i] = SweepRow(*cells[i], *outcome)
    return rows


def _table(header: list[str], rows, fmt: str) -> str:
    """Encode rows of values under header as CSV or JSONL.

    A float is written with 17 significant digits, so it reads back bit for
    bit; None is an empty CSV field or a JSON null; a string is quoted in
    JSONL. Names and strings are the program's own words, which need no
    escaping, so json is not imported at start-up.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}")

    def field(x) -> str:
        if x is None:
            return "" if fmt == "csv" else "null"
        if isinstance(x, str):
            return x if fmt == "csv" else f'"{x}"'
        if isinstance(x, int):
            return str(x)
        return format(x, ".17g")

    if fmt == "csv":
        lines = [",".join(header)] + [",".join(field(x) for x in row) for row in rows]
    else:
        lines = [
            "{" + ", ".join(f'"{k}": {field(x)}' for k, x in zip(header, row)) + "}" for row in rows
        ]
    return "\n".join(lines) + "\n"


def format_trajectory(traj: Trajectory, fmt: str = "csv", record_every: int = 1) -> str:
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    last_t = traj.records[-1].t
    recs = [r for r in traj.records if r.t % record_every == 0 or r.t == last_t]
    with_w = all(r.w is not None for r in recs)
    header = ["step", "loss", "grad_norm", "sharpness"]
    if with_w:
        header += [f"w_{i}" for i in range(recs[0].w.size)]
    rows = ([r.t, r.loss, r.grad_norm, r.sharpness, *(r.w if with_w else ())] for r in recs)
    return _table(header, rows, fmt)


def format_sweep(rows: list[SweepRow], fmt: str = "csv") -> str:
    header = [f.name for f in fields(SweepRow)]
    return _table(header, (vars(r).values() for r in rows), fmt)


def format_eig(est: EigEstimate, fmt: str = "csv") -> str:
    """eig's one line of text under csv, or under jsonl one object of the estimate's three fields."""
    if fmt == "csv":
        return (f"lambda_max={est.lambda_max:.17g} iterations={est.iterations_used} "
                f"residual={est.residual:.3g}\n")
    row = (est.lambda_max, est.iterations_used, est.residual)
    return _table(["lambda_max", "iterations", "residual"], [row], fmt)


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
    if len(lines) < 2:
        raise ValueError(f"{path}: a trajectory CSV needs a header and at least one row")
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
            raise ValueError(f"{path} line {n}: {len(parts)} fields, the header has {len(header)}")
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
