"""The benchmark's workloads: seeded inputs, the ops of one pass, output checks.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one returns. A pass is one fixed round of ops; all
passes of a run use the same inputs, so per-pass counts repeat exactly.
Inputs come only from the workload seed; the program receives generated
arrays and files, never a dataset of its own choosing.
"""
from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import sharpopt
from sharpopt import Logistic, Quadratic, RunConfig, analysis, cli, runner
from sharpopt.config import ObjectiveSpec, SweepSpec
from sharpopt.runner import initial_w

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
MODES = ("vanilla", "sam", "wsam", "coupled")

# Seed-stream tags of the benchmark's own generators, distinct per workload.
TAG_TOY, TAG_LOGISTIC, TAG_QUADRATIC, TAG_CLI = 101, 102, 103, 104


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    key: str  # unique within a pass
    kind: str  # ops of one kind differ only in mode, so their per-step cost compares
    mode: str | None
    steps: int  # optimizer steps the op completes
    call: Callable[[int], object]  # pass index -> output
    check: Callable[[object], None]  # raises CheckFailed


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, tag]).integers(0, 2**31 - 1, size=n)]


class Workload:
    name: str
    why: str
    uses_toy_catalog = False

    def ops(self, in_process: bool) -> list[Op]:
        raise NotImplementedError

    def peak_rss_kb(self) -> int | None:
        """Peak RSS of the processes doing the work, when they are not this one."""
        return None

    def close(self) -> None:
        pass


class ToySweep(Workload):
    name = "toy_sweep"
    why = ("d = 2 makes the math trivial, so time goes to per-step overhead in core, sam, "
           "base_optimizers and runner.run, and to runner.sweep's thread pool.")
    uses_toy_catalog = True
    GAMMAS = tuple(round(0.05 * i, 2) for i in range(20))
    RHOS = (1.0, 2.0)
    STEPS = 150

    def __init__(self, seed: int):
        (cell_seed,) = _seeds(seed, TAG_TOY, 1)
        analysis.toy_minima()
        self.first: dict[str, str] = {}
        self._ops = []
        for rho in self.RHOS:
            for mode in MODES:
                cfg = replace(sharpopt.toy_preset(gamma=0.5, mode=mode, steps=self.STEPS,
                                                  seed=cell_seed), rho=rho)
                spec = SweepSpec(gammas=self.GAMMAS, seeds=(cell_seed,), eig=True)
                key = f"sweep/{mode}/rho={rho:g}"
                self._ops.append(Op(
                    key, "sweep", mode, len(self.GAMMAS) * self.STEPS,
                    lambda _, cfg=cfg, spec=spec: self._sweep(cfg, spec),
                    lambda out, key=key, mode=mode, rho=rho: self._check(key, mode, rho, out),
                ))

    @staticmethod
    def _sweep(cfg, spec):
        rows = sharpopt.sweep(cfg, spec)
        return rows, runner.format_sweep(rows)

    def _check(self, key, mode, rho, out):
        rows, text = out
        require([(r.gamma, r.rho) for r in rows] == [(g, rho) for g in self.GAMMAS],
                f"{key}: rows out of grid order")
        require(all(r.status in ("ok", "diverged") for r in rows), f"{key}: unknown status")
        if rho == 2.0 and mode == "sam":
            require(all(r.status == "ok" and r.minimum == "sharp" for r in rows),
                    f"{key}: a sam cell did not end sharp")
        if rho == 2.0 and mode == "coupled":
            row = rows[self.GAMMAS.index(0.95)]
            require(row.status == "ok" and row.minimum == "flat",
                    f"{key}: coupled at gamma 0.95 did not end flat")
        require(self.first.setdefault(key, text) == text, f"{key}: rows differ from pass 0")

    def ops(self, in_process: bool) -> list[Op]:
        return self._ops


class LogisticAdam(Workload):
    name = "logistic_adam"
    why = ("Evaluation-bound: objectives gathers mini-batches with batch_at or runs "
           "full-batch GEMVs, and adam exercises DiagPrecond.")
    N, D, BATCH = 4096, 256, 128
    # vanilla runs more steps, so that every op lasts about as long and latency
    # percentiles do not sit on a gap between op kinds
    MB_STEPS = {"vanilla": 360, "sam": 240, "wsam": 240, "coupled": 240}
    FB_STEPS = {"vanilla": 80, "sam": 40, "wsam": 40, "coupled": 40}
    # a fixed iteration count (tol below any reachable residual) keeps the op's
    # work independent of the seed's spectrum
    EIG_ITERS, EIG_TOL = 43, 1e-300

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, TAG_LOGISTIC])
        X = rng.standard_normal((self.N, self.D))
        w_true = rng.standard_normal(self.D) * (3.0 / np.sqrt(self.D))
        y = (X @ w_true + 0.5 * rng.standard_normal(self.N) > 0.0).astype(np.float64)
        self.obj = Logistic(X, y)
        self.run_seeds = _seeds(seed, TAG_LOGISTIC, 4)
        base = RunConfig(objective=ObjectiveSpec(kind="logistic", num_examples=self.N, dim=self.D),
                         base_kind="adam", alpha=0.01, rho=0.05, gamma=0.7, init_scale=0.1)
        self.initial_loss = {s: self.obj.loss(initial_w(replace(base, seed=s), self.obj))
                             for s in self.run_seeds}
        self.endpoint: dict[str, np.ndarray] = {}
        self._ops = []
        for mode in MODES:
            mb = replace(base, mode=mode, batch_size=self.BATCH, steps=self.MB_STEPS[mode])
            fb = replace(base, mode=mode, steps=self.FB_STEPS[mode])
            self._ops += [
                Op(f"run_mb/{mode}", "run_mb", mode, mb.steps,
                   lambda i, cfg=mb: self._run(cfg, i), self._check_run),
                Op(f"run_fb/{mode}", "run_fb", mode, fb.steps,
                   lambda i, cfg=fb, mode=mode: self._run(cfg, i, mode), self._check_run),
                Op(f"eig/{mode}", "eig", mode, 0,
                   lambda i, mode=mode: self._eig(mode, i), self._check_eig),
            ]

    def _run(self, cfg, pass_idx, keep_as=None):
        seed = self.run_seeds[pass_idx % len(self.run_seeds)]
        traj = sharpopt.run(replace(cfg, seed=seed), self.obj)
        if keep_as is not None:
            self.endpoint[keep_as] = traj.final_w
        return seed, traj

    def _eig(self, mode, pass_idx):
        seed = self.run_seeds[pass_idx % len(self.run_seeds)]
        return sharpopt.power_iteration(self.obj, self.endpoint.pop(mode), max_iters=self.EIG_ITERS,
                                        tol=self.EIG_TOL, seed=seed)

    def _check_run(self, out):
        seed, traj = out
        require(bool(np.all(np.isfinite(traj.losses()))), "non-finite loss in a run")
        final = self.obj.loss(traj.final_w)
        require(final < self.initial_loss[seed],
                f"final loss {final:.6g} not below initial {self.initial_loss[seed]:.6g}")

    @staticmethod
    def _check_eig(est):
        require(bool(np.isfinite(est.lambda_max)) and est.lambda_max > 0.0,
                f"lambda_max = {est.lambda_max}")

    def ops(self, in_process: bool) -> list[Op]:
        return self._ops


class QuadraticCentres(Workload):
    name = "quadratic_centres"
    why = ("Quadratic.loss_grad loops over 1,024 centres in Python and re-validates each; "
           "the batch-1 streaming half is batch_at plus per-step overhead instead.")
    M, D = 1024, 8
    # step counts give every op about the same duration, so latency
    # percentiles do not sit on a gap between op kinds
    FB_STEPS = {"vanilla": 6, "coupled": 3}
    STREAM_STEPS = {"vanilla": 1480, "coupled": 940}
    # sgd at alpha 0.8 on curvatures in [1, 1.5] contracts every coordinate
    # by at least 5x per full-batch step, so 6 steps land well inside this
    ENDPOINT_RTOL = 1e-3

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, TAG_QUADRATIC])
        a = rng.uniform(1.0, 1.5, size=self.D)
        centres = rng.standard_normal((self.M, self.D))
        self.obj = Quadratic(a, centres)
        self.minimiser = centres.mean(axis=0)
        self.run_seeds = _seeds(seed, TAG_QUADRATIC, 4)
        objective = ObjectiveSpec(kind="quadratic", a=tuple(a), centers=())
        full = RunConfig(objective=objective, base_kind="sgd", alpha=0.8, rho=0.05, gamma=0.7)
        # criterion 5's regime: batch 1, inverse-sqrt step size and radius
        stream = RunConfig(objective=objective, base_kind="sgd", alpha=0.5,
                           alpha_schedule="inverse-sqrt", rho=0.1, rho_schedule="inverse-sqrt",
                           gamma=0.5, batch_size=1)
        self._ops = []
        for mode in ("vanilla", "coupled"):
            fb = replace(full, mode=mode, steps=self.FB_STEPS[mode])
            st = replace(stream, mode=mode, steps=self.STREAM_STEPS[mode])
            check_fb = self._check_minimiser if mode == "vanilla" else self._check_finite
            self._ops += [
                Op(f"run_fb/{mode}", "run_fb", mode, fb.steps,
                   lambda i, cfg=fb: self._run(cfg, i), check_fb),
                Op(f"run_stream/{mode}", "run_stream", mode, st.steps,
                   lambda i, cfg=st: self._run(cfg, i), self._check_finite),
            ]

    def _run(self, cfg, pass_idx):
        cfg = replace(cfg, seed=self.run_seeds[pass_idx % len(self.run_seeds)])
        return cfg, sharpopt.run(cfg, self.obj)

    def _check_minimiser(self, out):
        cfg, traj = out
        w0 = initial_w(cfg, self.obj)
        err = float(np.max(np.abs(traj.final_w - self.minimiser)))
        tol = self.ENDPOINT_RTOL * (1.0 + float(np.max(np.abs(w0 - self.minimiser))))
        require(err <= tol, f"vanilla endpoint {err:.3g} from the centres' mean, tolerance {tol:.3g}")

    @staticmethod
    def _check_finite(out):
        require(bool(np.all(np.isfinite(out[1].final_w))), "non-finite endpoint")

    def ops(self, in_process: bool) -> list[Op]:
        return self._ops


class CliCold(Workload):
    name = "cli_cold"
    why = ("Only this workload reaches cli, config parsing, runner.format/emit and the "
           "per-process import and toy_minima cost every invocation pays.")
    uses_toy_catalog = True
    TOY_STEPS = 150
    RUN_STEPS, RUN_CENTRES, RUN_DIM = 200, 32, 4
    SWEEP_GAMMAS = tuple(round(0.80 + 0.02 * k, 2) for k in range(8))
    EIG_STEPS, EIG_ROWS, EIG_DIM = 100, 256, 8

    def __init__(self, seed: int):
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=SCRATCH))
        rng = np.random.default_rng([seed, TAG_CLI])
        run_seed, sweep_seed, eig_seed, toy_seed = _seeds(seed, TAG_CLI, 4)

        a = rng.uniform(1.0, 2.0, size=self.RUN_DIM)
        centres = rng.standard_normal((self.RUN_CENTRES, self.RUN_DIM))
        self._write("run.ini", f"""\
[objective]
kind = quadratic
a = {_floats(a)}
centers = {" | ".join(_floats(c) for c in centres)}

[optimizer]
mode = coupled
base = sgdm
alpha = 0.05
rho = 0.05
gamma = 0.7
batch_size = 8

[run]
steps = {self.RUN_STEPS}
seed = {run_seed}
""")
        self._write("sweep.ini", f"""\
[objective]
kind = toy

[optimizer]
mode = coupled

[run]
steps = {self.TOY_STEPS}
seed = {sweep_seed}

[sweep]
gamma = {_floats(self.SWEEP_GAMMAS)}
eig = true
""")
        X = rng.standard_normal((self.EIG_ROWS, self.EIG_DIM))
        y = (X @ rng.standard_normal(self.EIG_DIM) > 0.0).astype(np.float64)
        header = ",".join([f"x{i}" for i in range(self.EIG_DIM)] + ["y"])
        np.savetxt(self.dir / "data.csv", np.column_stack([X, y]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        self._write("eig.ini", f"""\
[objective]
kind = logistic
csv = {self.dir / "data.csv"}

[optimizer]
mode = sam
base = adam
alpha = 0.05
rho = 0.05

[run]
steps = {self.EIG_STEPS}
seed = {eig_seed}
""")
        toy = ["toy", "--gamma", "0.95", "--seed", str(toy_seed), "--steps", str(self.TOY_STEPS)]
        self.invocations = [
            ("toy_out", "coupled", self.TOY_STEPS, toy + ["--out", str(self.dir / "toy.csv")],
             self.dir / "toy.csv"),
            ("toy_stdout", "coupled", self.TOY_STEPS, toy + ["--format", "jsonl"], None),
            ("run", "coupled", self.RUN_STEPS,
             ["run", "--config", str(self.dir / "run.ini"), "--format", "jsonl",
              "--out", str(self.dir / "run.jsonl")], self.dir / "run.jsonl"),
            ("sweep", "coupled", len(self.SWEEP_GAMMAS) * self.TOY_STEPS,
             ["sweep", "--config", str(self.dir / "sweep.ini"), "--out",
              str(self.dir / "sweep.csv")], self.dir / "sweep.csv"),
            ("eig", "sam", self.EIG_STEPS, ["eig", "--config", str(self.dir / "eig.ini")], None),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.first: dict[str, bytes] = {}
        self._peak_rss_kb = 0
        self._catalog = analysis.toy_minima  # the cached original, before any wrapping

    def _write(self, name: str, text: str) -> None:
        (self.dir / name).write_text(text, encoding="utf-8")

    def _spawn(self, argv):
        """One fresh `python -m sharpopt` process; returns (exit code, stdout)."""
        with open(self.dir / "stderr.txt", "wb") as err:
            p = subprocess.Popen([sys.executable, "-m", "sharpopt", *argv], cwd=ROOT,
                                 env=self.env, stdout=subprocess.PIPE, stderr=err)
            try:
                with p.stdout:
                    out = p.stdout.read()
            finally:
                # wait4 rather than wait: it also returns the child's peak RSS
                _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self._peak_rss_kb = max(self._peak_rss_kb, usage.ru_maxrss)
        return p.returncode, out

    def _in_process(self, argv):
        """cli.main in this process, with the catalog cleared as a new process has it."""
        self._catalog.cache_clear()
        buf = io.BytesIO()
        stdout = io.TextIOWrapper(buf, encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
            stdout.flush()
            out = buf.getvalue()
        return code, out

    def _check(self, key, out_path, in_process, result):
        code, out = result
        require(code == 0, f"{key}: exit code {code}")
        if key == "toy_out":
            require(b"minimum=flat" in out, f"{key}: did not print minimum=flat")
        if out_path is not None:
            out += b"\0" + out_path.read_bytes()
            # every invocation writes a new file: ext4 flushes a file truncated
            # on open when it is closed, which would time the host's disk instead
            out_path.unlink()
        ref = f"{key}/{'in-process' if in_process else 'subprocess'}"
        require(self.first.setdefault(ref, out) == out, f"{key}: output differs from pass 0")

    def ops(self, in_process: bool) -> list[Op]:
        runner = self._in_process if in_process else self._spawn
        return [
            Op(key, "cli", mode, steps, lambda _, argv=argv: runner(argv),
               lambda result, key=key, path=path: self._check(key, path, in_process, result))
            for key, mode, steps, argv, path in self.invocations
        ]

    def peak_rss_kb(self) -> int | None:
        return self._peak_rss_kb or None

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


WORKLOADS = {w.name: w for w in (ToySweep, LogisticAdam, QuadraticCentres, CliCold)}
