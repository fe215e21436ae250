"""Run loop, sweep grid, and the emitted table formats."""
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from sharpopt.config import ObjectiveSpec, RunConfig, SweepSpec, toy_preset
from sharpopt.objectives import FULL_BATCH, Quadratic
from sharpopt.runner import (
    NumericBlowup,
    build_objective,
    emit,
    format_sweep,
    format_trajectory,
    initial_w,
    read_trajectory_csv,
    run,
    sweep,
)

QUAD_CFG = RunConfig(
    objective=ObjectiveSpec(kind="quadratic", a=(2.0, 1.0), centers=((1.0, -1.0),)),
    mode="sam", base_kind="sgd", alpha=0.1, rho=0.2, steps=20, init=(0.0, 0.0),
)


def test_run_records_every_step_in_order():
    traj = run(QUAD_CFG)
    assert len(traj) == QUAD_CFG.steps
    assert traj.steps().tolist() == list(range(1, 21))


def test_last_snapshot_is_the_final_point():
    traj = run(QUAD_CFG)
    assert np.array_equal(traj.records[-1].w, traj.final_w)


def test_run_is_deterministic():
    a = run(QUAD_CFG)
    b = run(QUAD_CFG)
    assert np.array_equal(a.final_w, b.final_w)
    assert a.losses().tolist() == b.losses().tolist()


def test_first_record_loss_is_the_loss_at_the_start_point():
    obj = build_objective(QUAD_CFG)
    traj = run(QUAD_CFG, obj)
    assert traj.records[0].loss == obj.loss(np.array(QUAD_CFG.init))


def test_random_init_follows_the_seed():
    cfg = replace(QUAD_CFG, init=None)
    obj = build_objective(cfg)
    w_a = initial_w(cfg, obj)
    w_b = initial_w(cfg, obj)
    w_c = initial_w(replace(cfg, seed=1), obj)
    assert np.array_equal(w_a, w_b)
    assert not np.array_equal(w_a, w_c)
    assert np.array_equal(initial_w(QUAD_CFG, obj), [0.0, 0.0])


def test_snapshots_are_dropped_for_wide_problems():
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="logistic", num_examples=10, dim=17),
        mode="vanilla", base_kind="sgd", alpha=0.1, rho=0.0, steps=3, init=None,
    )
    traj = run(cfg)
    assert all(r.w is None for r in traj.records)
    assert traj.final_w.size == 17
    out = format_trajectory(traj)
    assert out.splitlines()[0] == "step,loss,grad_norm,sharpness"


def test_divergence_raises_with_the_failing_step():
    cfg = replace(QUAD_CFG, alpha=50.0, steps=100)
    with pytest.raises(NumericBlowup) as info:
        run(cfg)
    assert info.value.failed_step <= 100
    rec = info.value.last_finite_record
    assert rec is not None and math.isfinite(rec.loss)


@pytest.mark.parametrize("num_centres,alpha,batch_size,failed_step", [
    (2, 1.5, None, 228),
    (3, 2.5, 2, 139),
])
def test_a_nonfinite_perturbed_point_fails_at_its_pinned_step(
    num_centres, alpha, batch_size, failed_step
):
    # steps pinned from the per-centre evaluation: the adaptive offset
    # w * w * g_tilde overflows before the loss at w does
    centres = ((0.5, -0.5), (-1.0, 1.0), (0.0, 2.0))[:num_centres]
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="quadratic", a=(1.0, 2.0), centers=centres),
        mode="sam", base_kind="sgd", alpha=alpha, rho=0.5, adaptive=True, steps=2000,
        init=(1.0, 1.0), batch_size=batch_size,
    )
    seen = []

    class Recording(Quadratic):
        def loss_grad(self, w, batch=FULL_BATCH):
            seen.append(np.array(w, dtype=np.float64))
            return super().loss_grad(w, batch)

    obj = Recording(cfg.objective.a, cfg.objective.centers)
    with pytest.raises(NumericBlowup) as info:
        run(cfg, obj)
    assert info.value.failed_step == failed_step
    assert "vector entries must be finite" in str(info.value)
    # the failing call is the step's second, perturbed evaluation
    assert len(seen) == 2 * failed_step
    assert np.all(np.isfinite(seen[-2])) and not np.all(np.isfinite(seen[-1]))


def test_leaving_the_toy_domain_is_reported_as_a_blowup():
    cfg = RunConfig(
        objective=ObjectiveSpec(kind="toy"), mode="vanilla", base_kind="sgd",
        alpha=1e4, rho=0.0, steps=50, init=(-6.0, 10.0),
    )
    with pytest.raises(NumericBlowup):
        run(cfg)


# --- sweeps -----------------------------------------------------------------------

def test_sweep_covers_the_grid_in_product_order():
    spec = SweepSpec(gammas=(0.0, 0.5), rhos=(0.1, 0.2))
    rows = sweep(QUAD_CFG, spec)
    assert [(r.gamma, r.rho) for r in rows] == [
        (0.0, 0.1), (0.0, 0.2), (0.5, 0.1), (0.5, 0.2)
    ]
    assert all(r.status == "ok" for r in rows)
    assert all(r.alpha == QUAD_CFG.alpha and r.seed == QUAD_CFG.seed for r in rows)


def test_sweep_isolates_diverging_cells():
    spec = SweepSpec(alphas=(0.1, 50.0))
    rows = sweep(replace(QUAD_CFG, steps=100), spec)
    assert [r.status for r in rows] == ["ok", "diverged"]
    assert rows[1].final_loss is None
    assert rows[0].final_loss is not None


def test_sweep_eig_column():
    rows = sweep(QUAD_CFG, SweepSpec(eig=True))
    # the quadratic Hessian is diag(2, 1) everywhere
    assert math.isclose(rows[0].lambda_max, 2.0, rel_tol=1e-4)


def test_sweep_marks_toy_endpoints_with_their_basin():
    rows = sweep(toy_preset(gamma=0.95), SweepSpec(gammas=(0.95,)))
    assert rows[0].minimum == "flat"
    assert sweep(QUAD_CFG, SweepSpec())[0].minimum is None


def test_sweep_thread_cap_env(monkeypatch):
    monkeypatch.setenv("SHARPOPT_THREADS", "1")
    rows = sweep(QUAD_CFG, SweepSpec(gammas=(0.0, 0.5)))
    assert len(rows) == 2
    monkeypatch.setenv("SHARPOPT_THREADS", "0")
    with pytest.raises(ValueError):
        sweep(QUAD_CFG, SweepSpec())


# --- emitted formats ------------------------------------------------------------------

def test_trajectory_csv_shape_and_header():
    traj = run(QUAD_CFG)
    text = format_trajectory(traj, "csv")
    lines = text.splitlines()
    assert lines[0] == "step,loss,grad_norm,sharpness,w_0,w_1"
    assert len(lines) == 1 + 20
    assert text.endswith("\n")


@pytest.mark.parametrize("steps,every,expected", [(150, 10, 15), (151, 10, 16), (155, 10, 16), (7, 1, 7)])
def test_trajectory_thinning_keeps_the_final_step(steps, every, expected):
    traj = run(replace(QUAD_CFG, steps=steps))
    lines = format_trajectory(traj, "csv", record_every=every).splitlines()
    assert len(lines) == 1 + expected
    assert lines[-1].startswith(f"{steps},")


def test_trajectory_csv_round_trips_bitwise(tmp_path):
    traj = run(QUAD_CFG)
    path = tmp_path / "traj.csv"
    emit(format_trajectory(traj, "csv"), str(path))
    back = read_trajectory_csv(str(path))
    assert np.array_equal(back.final_w, traj.final_w)
    assert back.losses().tolist() == traj.losses().tolist()
    assert all(np.array_equal(a.w, b.w) for a, b in zip(back.records, traj.records))


@pytest.mark.parametrize("row", ["1,0.5,1.0,,0.1", "1,0.5,1.0,,0.1,0.2,0.3"])
def test_trajectory_csv_rejects_a_row_of_the_wrong_width(tmp_path, row):
    path = tmp_path / "traj.csv"
    path.write_text(f"step,loss,grad_norm,sharpness,w_0,w_1\n1,0.5,1.0,,0.1,0.2\n\n{row}\n")
    with pytest.raises(ValueError, match="line 4"):
        read_trajectory_csv(str(path))


def test_trajectory_jsonl_lines_parse():
    traj = run(replace(QUAD_CFG, mode="vanilla", steps=2))
    lines = format_trajectory(traj, "jsonl").splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert list(row) == ["step", "loss", "grad_norm", "sharpness", "w_0", "w_1"]
    assert row["sharpness"] is None  # vanilla steps have no climbed loss
    assert row["step"] == 1


def test_unknown_format_rejected():
    traj = run(replace(QUAD_CFG, steps=2))
    with pytest.raises(ValueError):
        format_trajectory(traj, "yaml")
    with pytest.raises(ValueError):
        format_trajectory(traj, "csv", record_every=0)
    with pytest.raises(ValueError):
        format_sweep([], "yaml")


def test_sweep_csv_header():
    rows = sweep(QUAD_CFG, SweepSpec())
    lines = format_sweep(rows, "csv").splitlines()
    assert lines[0] == "gamma,rho,alpha,seed,status,final_loss,final_grad_norm,lambda_max,minimum"
    assert len(lines) == 2


def test_sweep_jsonl_nulls_for_missing_columns():
    rows = sweep(QUAD_CFG, SweepSpec())
    row = json.loads(format_sweep(rows, "jsonl").splitlines()[0])
    assert row["lambda_max"] is None and row["minimum"] is None
    assert row["status"] == "ok"


def test_emit_writes_files_and_counts_bytes(tmp_path):
    path = tmp_path / "out.txt"
    n = emit("abc\n", str(path))
    assert n == 4
    assert path.read_text() == "abc\n"


def test_emit_to_stdout(capfd):
    emit("xyz\n", None)
    assert capfd.readouterr().out == "xyz\n"


def test_floats_survive_the_seventeen_digit_format():
    traj = run(QUAD_CFG)
    line = format_trajectory(traj, "csv").splitlines()[1]
    loss_text = line.split(",")[1]
    assert float(loss_text) == traj.records[0].loss
