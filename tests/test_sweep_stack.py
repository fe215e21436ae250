"""Stacked sweeps: each row equals the run of its cell, bit for bit."""
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpopt import cli, runner
from sharpopt.analysis import classify_minimum, power_iteration
from sharpopt.config import ConfigError, ObjectiveSpec, RunConfig, SweepSpec, toy_preset
from sharpopt.core import l2_norm
from sharpopt.objectives import FULL_BATCH, Logistic, Objective, Quadratic, ToyLandscape
from sharpopt.runner import (
    NumericBlowup,
    SweepRow,
    build_objective,
    format_sweep,
    initial_w,
    run,
    sweep,
)

MODES = ("vanilla", "sam", "wsam", "coupled")
QUADRATIC = ObjectiveSpec(kind="quadratic", a=(2.0, 1.0),
                          centers=((1.0, -1.0), (0.5, 0.5), (-1.0, 2.0), (0.0, 0.3)))


def reference_rows(cfg, spec):
    """The sweep's rows the slow way: one objective and one run per cell."""
    rows = []
    for gamma, rho, alpha, seed in itertools.product(
        spec.gammas or (cfg.gamma,), spec.rhos or (cfg.rho,),
        spec.alphas or (cfg.alpha,), spec.seeds or (cfg.seed,),
    ):
        rcfg = replace(cfg, gamma=gamma, rho=rho, alpha=alpha, seed=seed, out=None)
        obj = build_objective(rcfg)
        cell = (gamma, rho, alpha, seed)
        try:
            w = run(rcfg, obj).final_w
        except NumericBlowup:
            rows.append(SweepRow(*cell, "diverged"))
            continue
        loss, grad = obj.loss_grad(w)
        if not math.isfinite(loss) or loss > obj.loss(initial_w(rcfg, obj)):
            rows.append(SweepRow(*cell, "diverged"))
            continue
        lam = power_iteration(obj, w, seed=seed).lambda_max if spec.eig else None
        minimum = classify_minimum(w) if rcfg.objective.kind == "toy" else None
        rows.append(SweepRow(*cell, "ok", loss, l2_norm(grad), lam, minimum))
    return rows


def assert_rows_match(cfg, spec):
    rows = sweep(cfg, spec)
    ref = reference_rows(cfg, spec)
    assert format_sweep(rows) == format_sweep(ref)
    assert format_sweep(rows, "jsonl") == format_sweep(ref, "jsonl")
    return rows


@pytest.mark.parametrize("mode", MODES)
def test_toy_rows_match_their_runs(mode):
    spec = SweepSpec(gammas=(0.0, 0.5, 0.8, 0.95), rhos=(1.0, 2.0), eig=True)
    rows = assert_rows_match(toy_preset(gamma=0.5, mode=mode), spec)
    assert all(r.status == "ok" and r.minimum in ("sharp", "flat") for r in rows)


def test_a_quadratic_row_blows_up_beside_rows_that_finish():
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="quadratic", a=(2.0, 1.0),
                                centers=((1.0, -1.0), (0.5, 0.5), (-1.0, 2.0), (0.0, 0.3))),
        mode="coupled", base_kind="sgdm", rho=0.2, batch_size=2, steps=100, init=None,
        init_scale=4.0,
    )
    spec = SweepSpec(gammas=(0.0, 0.5), alphas=(0.1, 50.0), seeds=(0, 1), eig=True)
    rows = assert_rows_match(cfg, spec)
    assert {r.alpha: r.status for r in rows} == {0.1: "ok", 50.0: "diverged"}


def test_logistic_rows_match_their_runs():
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="logistic", num_examples=64, dim=6),
        mode="wsam", base_kind="adam", alpha=0.05, rho=0.05, batch_size=8, steps=40, init=None,
    )
    spec = SweepSpec(gammas=(0.0, 0.9), rhos=(0.05, 0.5), seeds=(0, 3), eig=True)
    rows = assert_rows_match(cfg, spec)
    assert all(r.status == "ok" for r in rows)


def test_a_toy_row_leaving_the_domain_is_diverged_and_its_neighbours_match():
    cfg = RunConfig(objective=ObjectiveSpec(kind="toy"), mode="sam", base_kind="sgd",
                    rho=1.0, steps=60, init=(-6.0, 10.0))
    spec = SweepSpec(gammas=(0.5,), alphas=(1.0, 1e4, 5.0), eig=True)
    with pytest.raises(NumericBlowup):
        run(replace(cfg, alpha=1e4))
    rows = assert_rows_match(cfg, spec)
    assert [r.status for r in rows] == ["ok", "diverged", "ok"]


def test_a_run_that_ends_outside_the_domain_is_a_diverged_row_not_an_abort():
    cfg = RunConfig(objective=ObjectiveSpec(kind="toy"), mode="vanilla", base_kind="sgd",
                    alpha=1e4, rho=0.0, steps=2, init=(-6.0, 10.0))
    # the run itself finishes: only its last step lands at sigma <= 0
    assert run(cfg).final_w[1] <= 0.0
    rows = sweep(cfg, SweepSpec(alphas=(1e4, 1.0)))
    assert [(r.alpha, r.status) for r in rows] == [(1e4, "diverged"), (1.0, "ok")]
    assert format_sweep(rows[1:]) == format_sweep(reference_rows(replace(cfg, alpha=1.0),
                                                                 SweepSpec()))


def test_multi_seed_grids_keep_product_order():
    spec = SweepSpec(gammas=(0.0, 0.5), rhos=(1.0, 2.0), seeds=(3, 1, 2))
    rows = sweep(toy_preset(gamma=0.5, steps=20), spec)
    assert [(r.gamma, r.rho, r.seed) for r in rows] == list(
        itertools.product((0.0, 0.5), (1.0, 2.0), (3, 1, 2)))


def test_one_objective_per_seed(monkeypatch):
    cfg = RunConfig(objective=ObjectiveSpec(kind="logistic", num_examples=64, dim=6),
                    mode="sam", base_kind="sgdm", alpha=0.05, rho=0.05, steps=20, init=None)
    spec = SweepSpec(gammas=(0.0, 0.5, 0.9), seeds=(0, 1))
    ref = reference_rows(cfg, spec)
    built = []

    def counting(rcfg):
        built.append(rcfg.seed)
        return build_objective(rcfg)

    monkeypatch.setattr(runner, "build_objective", counting)
    rows = sweep(cfg, spec)
    assert built == [0, 1]
    assert format_sweep(rows) == format_sweep(ref)


class PointOnly(Objective):
    """An objective that evaluates one point per call and knows nothing of stacks."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.num_examples = inner.num_examples

    def loss_grad(self, w, batch=FULL_BATCH):
        assert np.ndim(w) == 1
        return self.inner.loss_grad(w, batch)


def test_run_takes_a_point_only_objective():
    cfg = RunConfig(objective=ObjectiveSpec(kind="quadratic", a=(2.0, 1.0),
                                            centers=((1.0, -1.0), (0.0, 2.0))),
                    mode="coupled", base_kind="adam", alpha=0.1, rho=0.2, batch_size=1,
                    steps=30, init=(0.0, 0.0))
    obj = build_objective(cfg)
    a, b = run(cfg, obj), run(cfg, PointOnly(obj))
    assert a.losses().tolist() == b.losses().tolist()
    assert np.array_equal(a.final_w, b.final_w)


@pytest.mark.parametrize("obj,points", [
    (ToyLandscape(), [(-6.0, 10.0), (19.0, 30.0), (3.0, -1.0), (np.inf, 2.0), (0.0, np.nan)]),
    (Quadratic(a=(2.0, 1.0), centers=[(1.0, -1.0), (0.0, 2.0)]),
     [(0.0, 0.0), (3.0, -2.0), (np.nan, 1.0)]),
    (Logistic.synthetic(32, 2, seed=1), [(0.5, -0.5), (2.0, 1.0), (np.inf, 0.0)]),
])
def test_a_stack_evaluates_each_row_as_a_point(obj, points):
    W = np.array(points)
    with np.errstate(all="ignore"):
        losses, grads = obj.loss_grad(W)
    for w, loss, grad in zip(W, losses, grads):
        try:
            want_loss, want_grad = obj.loss_grad(w)
        except ValueError:
            # a point the point evaluation rejects reads non-finite in a stack
            assert not np.isfinite(loss)
            continue
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)


@pytest.mark.parametrize("mode,base", list(itertools.product(MODES, ("sgd", "sgdm", "adam"))))
def test_rows_that_fail_at_different_steps_in_one_stack_match_their_runs(mode, base):
    # alpha = 1e200 rows fail at step 2; sgd and sgdm rows at alpha = 50 fail later
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="quadratic", a=(2.0, 1.0),
                                centers=((1.0, -1.0), (0.5, 0.5), (-1.0, 2.0), (0.0, 0.3))),
        mode=mode, base_kind=base, rho=0.2, batch_size=2, steps=100, init=None,
        init_scale=4.0,
    )
    spec = SweepSpec(gammas=(0.0, 0.5), alphas=(0.1, 50.0, 1e200), seeds=(0, 1), eig=True)
    rows = assert_rows_match(cfg, spec)
    assert {"ok", "diverged"} <= {r.status for r in rows}


def test_a_bad_grid_value_raises_before_any_step(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return runner.step(*args)

    monkeypatch.setattr(runner, "step", counting)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        sweep(toy_preset(0.5), SweepSpec(seeds=(0, -1)))
    assert calls == []


def test_a_sweep_from_outside_the_domain_exits_one_before_any_step(tmp_path, capfd, monkeypatch):
    calls, step = [], runner.step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(runner, "step", counting)
    path = tmp_path / "cfg.ini"
    path.write_text("[objective]\nkind = toy\n[run]\ninit = 0, -1\n[sweep]\ngamma = 0.5\n")
    assert cli.main(["sweep", "--config", str(path)]) == 1
    assert capfd.readouterr().err == "sharpopt: toy landscape requires sigma > 0\n"
    assert calls == []


# seed 0's random start has sigma <= 0
@pytest.mark.parametrize("init", ["0, -1", "random"])
def test_a_run_from_outside_the_domain_exits_one_before_any_step_like_the_sweep(
        tmp_path, capfd, monkeypatch, init):
    calls, step = [], runner.step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(runner, "step", counting)
    doc = f"[objective]\nkind = toy\n[run]\ninit = {init}\n"
    run_path, sweep_path = tmp_path / "run.ini", tmp_path / "sweep.ini"
    run_path.write_text(doc)
    sweep_path.write_text(doc + "[sweep]\ngamma = 0.5\n")
    assert cli.main(["sweep", "--config", str(sweep_path)]) == 1
    sweep_err = capfd.readouterr().err
    assert cli.main(["run", "--config", str(run_path)]) == 1
    assert capfd.readouterr().err == sweep_err == "sharpopt: toy landscape requires sigma > 0\n"
    assert calls == []


def test_an_overflowing_start_fails_the_run_and_diverges_the_sweep(tmp_path, capfd):
    doc = "[objective]\nkind = toy\n[run]\ninit = 1e200, 1\nsteps = 10\n"
    run_path, sweep_path = tmp_path / "run.ini", tmp_path / "sweep.ini"
    run_path.write_text(doc)
    sweep_path.write_text(doc + "[sweep]\ngamma = 0.5\n")
    assert cli.main(["run", "--config", str(run_path)]) == 2
    assert capfd.readouterr().err == "sharpopt: non-finite loss at step 1\n"
    assert cli.main(["sweep", "--config", str(sweep_path)]) == 0
    out, err = capfd.readouterr()
    assert out.splitlines()[1:] == ["0.5,2,5,0,diverged,,,,"]
    assert "Traceback" not in err and err == "cells=1 diverged=1\n"


# radii and step sizes mostly where runs finish, some where rows overflow
SCALES = st.one_of(st.floats(0.0, 5.0), st.floats(0.0, 1e200))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    quadratic=st.booleans(),
    mode=st.sampled_from(MODES),
    base=st.sampled_from(("sgd", "sgdm", "adam")),
    clip=st.sampled_from((None, 1.0)),
    adaptive=st.booleans(),
    gammas=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3),
    rhos=st.lists(SCALES, min_size=1, max_size=2),
    alphas=st.lists(SCALES, min_size=1, max_size=2),
)
def test_generated_grids_match_their_runs(quadratic, mode, base, clip, adaptive, gammas, rhos,
                                          alphas):
    if quadratic:
        cfg = RunConfig(objective=QUADRATIC, batch_size=2, init=None, init_scale=4.0, steps=30)
    else:
        cfg = RunConfig(objective=ObjectiveSpec(kind="toy"), init=(-6.0, 10.0), steps=30)
    cfg = replace(cfg, mode=mode, base_kind=base, clip_norm=clip, adaptive=adaptive)
    spec = SweepSpec(gammas=tuple(gammas), rhos=tuple(rhos), alphas=tuple(alphas), seeds=(0, 1))
    assert_rows_match(cfg, spec)


def stack_heights(monkeypatch):
    """Each runner.step call's stack height, as the sweep makes them."""
    heights, step = [], runner.step

    def recording(obj, W, *args):
        heights.append(W.shape[0])
        return step(obj, W, *args)

    monkeypatch.setattr(runner, "step", recording)
    return heights


def distinct_runs(mode, gammas, rhos, alphas):
    """How many runs a seed group of the (gammas x rhos x alphas) grid steps in mode."""
    read = {"vanilla": (alphas,), "sam": (rhos, alphas)}.get(mode, (gammas, rhos, alphas))
    return math.prod(len(set(values)) for values in read)


@pytest.mark.parametrize("mode,base", list(itertools.product(MODES, ("sgd", "sgdm", "adam"))))
def test_cells_that_differ_only_in_unread_values_step_as_one_row(monkeypatch, mode, base):
    # 0.5 repeats, so it merges in every mode
    gammas, rhos, alphas = (0.0, 0.5, 0.9, 0.5), (1.0, 2.0), (1.0, 3.0)
    cfg = replace(toy_preset(gamma=0.5, mode=mode, steps=40), base_kind=base)
    spec = SweepSpec(gammas=gammas, rhos=rhos, alphas=alphas, seeds=(0, 1), eig=True)
    heights = stack_heights(monkeypatch)
    sweep(cfg, spec)
    want = {"vanilla": 2, "sam": 4, "wsam": 12, "coupled": 12}[mode]
    assert want == distinct_runs(mode, gammas, rhos, alphas)
    assert heights == [want] * (2 * cfg.steps)
    monkeypatch.undo()
    assert_rows_match(cfg, spec)


@pytest.mark.parametrize("mode", MODES)
def test_a_toy_gamma_sweep_steps_one_row_where_its_mode_reads_no_gamma(monkeypatch, mode):
    gammas = tuple(round(0.05 * i, 2) for i in range(20))
    cfg = toy_preset(gamma=0.5, mode=mode, steps=150)
    spec = SweepSpec(gammas=gammas, eig=True)
    heights = stack_heights(monkeypatch)
    sweep(cfg, spec)
    assert heights == [1 if mode in ("vanilla", "sam") else 20] * cfg.steps
    monkeypatch.undo()
    rows = assert_rows_match(cfg, spec)
    assert [r.gamma for r in rows] == list(gammas)
    if mode in ("vanilla", "sam"):
        assert len({(r.final_loss, r.lambda_max, r.minimum) for r in rows}) == 1


@pytest.mark.parametrize("mode,base", list(itertools.product(MODES, ("sgd", "sgdm", "adam"))))
def test_a_merged_run_that_diverges_labels_every_cell_diverged(monkeypatch, mode, base):
    cfg = RunConfig(objective=QUADRATIC, mode=mode, base_kind=base, rho=0.2, batch_size=2,
                    steps=100, init=None, init_scale=4.0)
    gammas, rhos, alphas = (0.0, 0.5, 0.5), (0.2, 0.4), (0.1, 50.0, 1e200)
    spec = SweepSpec(gammas=gammas, rhos=rhos, alphas=alphas, seeds=(0, 1), eig=True)
    heights = stack_heights(monkeypatch)
    sweep(cfg, spec)
    assert heights == [distinct_runs(mode, gammas, rhos, alphas)] * (2 * cfg.steps)
    monkeypatch.undo()
    rows = assert_rows_match(cfg, spec)
    assert {r.status for r in rows if r.alpha == 1e200} == {"diverged"}
    assert {r.status for r in rows if r.alpha == 0.1} == {"ok"}
