"""Command-line surface: outputs, exit codes, and the subprocess entry point."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpopt import analysis, cli, runner
from sharpopt.analysis import classify_minimum, power_iteration
from sharpopt.cli import main
from sharpopt.config import ConfigError, parse_config, parse_sweep_config
from sharpopt.core import DomainError, l2_norm
from sharpopt.runner import SweepRow, format_sweep, sweep

TOY_DOC = "[objective]\nkind = toy\n"
QUAD_DOC = """
[objective]
kind = quadratic
a = 2.0, 1.0
centers = 1.0, -1.0

[optimizer]
mode = sam
base = sgd
alpha = 0.1
rho = 0.2

[run]
steps = 10
init = 0.0, 0.0
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_csv_and_a_summary(tmp_path, capfd):
    out = tmp_path / "traj.csv"
    code = main(["run", "--config", write(tmp_path, QUAD_DOC), "--out", str(out)])
    captured = capfd.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm,sharpness,w_0,w_1"
    assert len(lines) == 11
    assert "final_loss=" in captured.out


def test_run_without_out_streams_csv_and_keeps_the_summary_on_stderr(tmp_path, capfd):
    code = main(["run", "--config", write(tmp_path, QUAD_DOC)])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0].startswith("step,loss")
    assert "final_loss=" in captured.err


def test_toy_streams_plain_csv(capfd):
    code = main(["toy", "--gamma", "0.95", "--steps", "5"])
    captured = capfd.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0] == "step,loss,grad_norm,sharpness,w_0,w_1"
    assert len(lines) == 6


def test_toy_out_file_reports_the_reached_basin(tmp_path, capfd):
    out = tmp_path / "toy.csv"
    code = main(["toy", "--gamma", "0.95", "--out", str(out)])
    captured = capfd.readouterr()
    assert code == 0
    assert "minimum=flat" in captured.out
    assert out.read_text().count("\n") == 151


def test_sweep_command(tmp_path, capfd):
    doc = QUAD_DOC + "\n[sweep]\ngamma = 0.0, 0.5\n"
    code = main(["sweep", "--config", write(tmp_path, doc)])
    captured = capfd.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("gamma,rho,alpha,seed,status")
    assert len(lines) == 3
    assert "cells=2 diverged=0" in captured.err


def test_eig_command(tmp_path, capfd):
    code = main(["eig", "--config", write(tmp_path, QUAD_DOC), "--at", "init"])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.out.startswith("lambda_max=")
    lam = float(captured.out.split()[0].split("=")[1])
    assert abs(lam - 2.0) < 1e-3


def eig_line(doc_path):
    """eig --at init's line, from the library: what eig printed before it took --out and --format."""
    with open(doc_path, encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    obj = runner.build_objective(cfg)
    est = power_iteration(obj, runner.initial_w(cfg, obj), seed=cfg.seed)
    line = (f"lambda_max={est.lambda_max:.17g} iterations={est.iterations_used} "
            f"residual={est.residual:.3g}\n")
    return est, line


def test_eig_with_neither_out_nor_format_prints_only_its_line(tmp_path, capfd):
    path = write(tmp_path, QUAD_DOC)
    assert main(["eig", "--config", path, "--at", "init", "--format", "csv"]) == 0
    flagged = capfd.readouterr()
    assert main(["eig", "--config", path, "--at", "init"]) == 0
    captured = capfd.readouterr()
    assert captured.out == flagged.out == eig_line(path)[1]
    assert captured.err == flagged.err == ""


def test_eig_writes_its_line_to_out_and_prints_a_summary(tmp_path, capfd):
    path = write(tmp_path, QUAD_DOC)
    est, line = eig_line(path)
    target = tmp_path / "eig.txt"
    assert main(["eig", "--config", path, "--at", "init", "--out", str(target)]) == 0
    captured = capfd.readouterr()
    assert target.read_text() == line
    assert captured.out == (f"lambda_max={est.lambda_max:.6g} wrote={len(line)}B "
                            f"path={target}\n")
    assert captured.err == ""


def test_eig_jsonl_is_one_object_of_the_estimate(tmp_path, capfd):
    path = write(tmp_path, QUAD_DOC)
    est, _ = eig_line(path)
    assert main(["eig", "--config", path, "--at", "init", "--format", "jsonl"]) == 0
    out = capfd.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"lambda_max": est.lambda_max, "iterations": est.iterations_used,
                               "residual": est.residual}


def test_eig_leaves_the_documents_out_and_format_to_the_run(tmp_path, capfd):
    trajectory = tmp_path / "traj.jsonl"
    path = write(tmp_path, QUAD_DOC + f"out = {trajectory}\nformat = jsonl\n")
    assert main(["run", "--config", path]) == 0
    written = trajectory.read_text()
    capfd.readouterr()
    assert main(["eig", "--config", path, "--at", "init"]) == 0
    captured = capfd.readouterr()
    assert captured.out == eig_line(path)[1]
    assert captured.err == ""
    assert trajectory.read_text() == written


def test_bound_command(capfd):
    code = main([
        "bound", "--d", "10", "--m", "1000", "--n", "5", "--rho", "0.1",
        "--gamma", "0.9", "--delta", "0.05", "--wnorm", "1.0", "--loss", "0.1",
    ])
    captured = capfd.readouterr()
    assert code == 0
    assert float(captured.out) == pytest.approx(14.288026790389969, abs=1e-12)


def test_check_grad_command(capfd):
    code = main(["check-grad"])
    captured = capfd.readouterr()
    assert code == 0
    assert captured.out.count("(ok)") == 3


# --- failure paths ---------------------------------------------------------------

def test_bad_config_exits_one(tmp_path, capfd):
    path = write(tmp_path, "[objective]\nkind = cubic\n")
    assert main(["run", "--config", path]) == 1
    assert "sharpopt:" in capfd.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("[run]", "eps_adam = nan\n\n[run]"),
    ("init = 0.0, 0.0", "init = nan, 1.0"),
    ("init = 0.0, 0.0", "init_scale = nan"),
    ("alpha = 0.1", "alpha = inf"),
])
def test_nonfinite_config_number_exits_one_before_any_step(tmp_path, capfd, monkeypatch, old, new):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    doc = QUAD_DOC.replace(old, new)
    assert doc != QUAD_DOC
    assert main(["run", "--config", write(tmp_path, doc)]) == 1
    assert "must be finite" in capfd.readouterr().err


def test_bad_flag_value_exits_one(capfd):
    assert main(["toy", "--gamma", "1.5"]) == 1
    assert "gamma" in capfd.readouterr().err


def test_usage_error_exits_one(capfd):
    with pytest.raises(SystemExit) as info:
        main(["run", "--config"])
    assert info.value.code == 1


def test_unknown_command_exits_one(capfd):
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 1


def test_missing_config_file_exits_three(capfd):
    assert main(["run", "--config", "/no/such/file.ini"]) == 3


def test_divergent_run_exits_two(tmp_path, capfd):
    doc = QUAD_DOC.replace("alpha = 0.1", "alpha = 50.0").replace("steps = 10", "steps = 200")
    assert main(["run", "--config", write(tmp_path, doc)]) == 2
    assert "last finite step" in capfd.readouterr().err


# one vanilla sgd step from (20, 200) at alpha 2983.1 ends at sigma ~0.0014, where the power
# iteration's difference probe crosses sigma = 0; at alpha 1 it stays far inside the domain
EDGE_RUN = ("[objective]\nkind = toy\n[optimizer]\nmode = vanilla\nbase = sgd\nalpha = 2983.1\n"
            "[run]\ninit = 20, 200\nsteps = 1\n")


def test_eig_exits_two_when_its_probe_leaves_the_domain_after_the_run_stepped(tmp_path, capfd):
    path = write(tmp_path, EDGE_RUN)
    assert main(["run", "--config", path]) == 0
    capfd.readouterr()
    assert main(["eig", "--config", path, "--at", "final"]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("sharpopt: power iteration left the objective's domain: "
                            "toy landscape requires sigma > 0\n")


def test_eig_at_a_start_outside_the_domain_exits_one_before_any_iteration(
        tmp_path, capfd, monkeypatch):
    calls, hvp = [], analysis.hvp

    def counting(*args):
        calls.append(1)
        return hvp(*args)

    monkeypatch.setattr(analysis, "hvp", counting)
    assert main(["eig", "--config", write(tmp_path, TOY_DOC + "[run]\ninit = 5, -1\n"),
                 "--at", "init"]) == 1
    assert capfd.readouterr().err == "sharpopt: toy landscape requires sigma > 0\n"
    assert calls == []


def test_a_sweep_keeps_an_ok_row_whose_probe_leaves_the_domain_without_its_lambda_max(
        tmp_path, capfd):
    doc = EDGE_RUN + "[sweep]\nalpha = 1, 2983.1\neig = true\n"
    assert main(["sweep", "--config", write(tmp_path, doc)]) == 0
    captured = capfd.readouterr()
    assert captured.err == "cells=2 diverged=0\n"
    rows = sweep(*parse_sweep_config(doc))
    assert captured.out == format_sweep(rows)
    for row, alpha in zip(rows, (1.0, 2983.1)):
        cfg = replace(parse_config(EDGE_RUN), alpha=alpha)
        obj = runner.build_objective(cfg)
        w = runner.run(cfg, obj).final_w
        loss, grad = obj.loss_grad(w)
        lam = power_iteration(obj, w, seed=cfg.seed).lambda_max if alpha == 1.0 else None
        assert row == SweepRow(cfg.gamma, cfg.rho, alpha, cfg.seed, "ok", loss, l2_norm(grad),
                               lam, classify_minimum(w))
    assert rows[0].lambda_max is not None
    assert captured.out.splitlines()[2].split(",")[7] == ""
    with pytest.raises(DomainError, match="toy landscape requires sigma > 0"):
        power_iteration(obj, w, seed=cfg.seed)


def test_bound_domain_error_exits_one(capfd):
    code = main([
        "bound", "--d", "10", "--m", "1000", "--n", "5", "--rho", "0.1",
        "--gamma", "0.9", "--delta", "2.0", "--wnorm", "1.0", "--loss", "0.1",
    ])
    assert code == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sharpopt", "toy", "--gamma", "0.6", "--steps", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "step,loss,grad_norm,sharpness,w_0,w_1"


def test_an_out_of_range_noise_fraction_exits_one(tmp_path, capfd):
    doc = "[objective]\nkind = logistic\nnoise_fraction = 1.5\n"
    code = main(["run", "--config", write(tmp_path, doc)])
    assert code == 1
    assert "noise_fraction must be in [0,1)" in capfd.readouterr().err


@pytest.mark.parametrize("flag,value", [("--wnorm", "nan"), ("--wnorm", "inf"), ("--rho", "inf")])
def test_bound_rejects_non_finite_inputs(capfd, flag, value):
    args = {"--d": "10", "--m": "1000", "--n": "100", "--rho": "0.05", "--gamma": "0.5",
            "--delta": "0.05", "--wnorm": "1.0", "--loss": "0.1", flag: value}
    assert main(["bound", *(x for pair in args.items() for x in pair)]) == 1
    captured = capfd.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err


def test_the_blas_thread_count_changes_no_output(tmp_path):
    doc = ("[objective]\nkind = logistic\nnum_examples = 4096\ndim = 256\n"
           "[optimizer]\nmode = wsam\nbase = adam\nalpha = 0.05\nrho = 0.05\ngamma = 0.7\n"
           "[run]\nsteps = 10\nseed = 1\n")
    path = write(tmp_path, doc)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "sharpopt", "run", "--config", path],
                              capture_output=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 11
    assert outputs[0] == outputs[1]


DISPATCH_CHILD = """
import sys
sys.path.insert(0, {tests!r})
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from sharpopt.config import ObjectiveSpec, RunConfig, SweepSpec, toy_preset
from sharpopt.runner import format_sweep, sweep
from test_sweep_stack import QUADRATIC, reference_rows

spec = SweepSpec(gammas=(0.0, 0.5, 0.9), rhos=(0.3, 1.0), eig=True)
print(" ".join(t for t in __cpu_dispatch__ if __cpu_features__[t]))
sys.stdout.write(format_sweep(sweep(toy_preset(gamma=0.5, steps=60, seed=3), spec)))
quadratic = RunConfig(objective=QUADRATIC, mode="wsam", base_kind="adam", alpha=0.05,
                      steps=40, batch_size=2, init=(0.5, -0.5))
sys.stdout.write(format_sweep(sweep(quadratic, spec)))
logistic = RunConfig(objective=ObjectiveSpec(kind="logistic", num_examples=256, dim=16),
                     mode="sam", base_kind="adam", alpha=0.05, steps=20, batch_size=32, seed=1)
rows = format_sweep(sweep(logistic, spec))
print("logistic rows are their runs:", rows == format_sweep(reference_rows(logistic, spec)))
"""


def test_the_cpu_dispatch_changes_no_toy_or_quadratic_output_and_no_row_identity():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not report its CPU dispatch")
    dispatched = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    if not dispatched:
        pytest.skip("numpy dispatches to no CPU feature above its baseline here")
    child = DISPATCH_CHILD.format(tests=os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for disabled in ("", " ".join(dispatched)):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled)
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        features, *tables, verdict = proc.stdout.splitlines()
        assert features == ("" if disabled else " ".join(dispatched))
        assert verdict == "logistic rows are their runs: True"
        outputs.append(tables)
    assert len(outputs[0]) == 2 * 7
    assert outputs[0] == outputs[1]


# --- generated documents ---------------------------------------------------------

# each value is drawn from the key's valid ones and from these
ODD_VALUES = ("-1", "1.5", "nan", "inf", "1e400", "abc", "")
VALID_VALUES = {
    "optimizer": {
        "mode": ("vanilla", "sam", "wsam", "coupled"), "base": ("sgd", "sgdm", "adam"),
        "alpha": ("0.1", "5"), "rho": ("0", "0.5", "2"), "gamma": ("0", "0.5", "0.9"),
        "momentum": ("0", "0.9"), "beta1": ("0.9",), "beta2": ("0.999",),
        "eps_adam": ("1e-8",), "sam_eps": ("1e-12",), "adaptive": ("true", "false"),
        "clip_norm": ("1",), "batch_size": ("1",),
    },
    "run": {
        "steps": ("1", "2", "3"), "seed": ("0", "1", "7"), "init": ("-6, 10", "random"),
        "init_scale": ("0.5", "1"), "record_every": ("1", "2"), "format": ("csv", "jsonl"),
    },
}
GRID_VALUES = {"gamma": ("0", "0.5", "0.9"), "rho": ("0.5", "2"), "alpha": ("0.1", "5"),
               "seed": ("0", "1", "7")}


def section(name):
    """Some of the section's keys, each with a valid or an odd value."""
    values = VALID_VALUES[name]
    keys = st.lists(st.sampled_from(sorted(values)), max_size=4, unique=True)
    return keys.flatmap(lambda ks: st.tuples(*(
        st.sampled_from(values[k] + ODD_VALUES).map(lambda v, k=k: f"{k} = {v}\n") for k in ks
    ))).map(lambda lines: f"[{name}]\n" + "".join(lines))


def grid_line(key):
    value = st.sampled_from(GRID_VALUES[key] + ODD_VALUES)
    return st.lists(value, min_size=1, max_size=3).map(lambda vs: f"{key} = {', '.join(vs)}\n")


SWEEP_SECTION = st.tuples(
    *(st.one_of(st.just(""), grid_line(key)) for key in GRID_VALUES),
    st.sampled_from(("", "eig = true\n", "eig = false\n", "max_cells = 2\n", "max_cells = abc\n")),
).map(lambda lines: "[sweep]\n" + "".join(lines))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(command=st.sampled_from(("run", "sweep", "eig --at final", "eig --at init")),
       optimizer=section("optimizer"), run_section=section("run"), sweep_section=SWEEP_SECTION)
def test_generated_documents_exit_one_only_before_any_step(command, optimizer, run_section,
                                                            sweep_section):
    doc = TOY_DOC + optimizer + run_section + (sweep_section if command == "sweep" else "")
    parse = parse_sweep_config if command == "sweep" else parse_config
    try:
        parse(doc)
        rejection = None
    except ConfigError as exc:
        rejection = f"sharpopt: {exc}\n"
    calls, step = [], runner.step

    def counting(*args):
        calls.append(1)
        return step(*args)

    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "step", counting)
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            name, *flags = command.split()
            code = main([name, "--config", path, *flags])
    assert code in (0, 1, 2)
    if rejection is not None:
        assert (code, stderr.getvalue()) == (1, rejection)
    if code == 1:
        assert calls == [], stderr.getvalue()


# seed 1's random start is inside the toy's domain and seed 0's is not
LATER_BAD_START = ("[objective]\nkind = toy\n[optimizer]\nmode = vanilla\nalpha = 0.1\n"
                   "[run]\ninit = random\nsteps = 3\n[sweep]\nseed = 1, 0\n")


def test_a_later_seed_group_starting_outside_the_domain_exits_one_before_any_step(
        tmp_path, capfd, monkeypatch):
    calls, step = [], runner.step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(runner, "step", counting)
    assert main(["sweep", "--config", write(tmp_path, LATER_BAD_START)]) == 1
    assert capfd.readouterr().err == "sharpopt: toy landscape requires sigma > 0\n"
    assert calls == []
    with pytest.raises(DomainError, match="toy landscape requires sigma > 0"):
        sweep(*parse_sweep_config(LATER_BAD_START))
    assert calls == []


def test_sweep_writes_the_documents_out_and_format_unless_flags_override_them(tmp_path, capfd):
    grid = "[sweep]\ngamma = 0.0, 0.5\n"
    plain = write(tmp_path, QUAD_DOC + grid, "plain.ini")
    assert main(["sweep", "--config", plain]) == 0
    csv = capfd.readouterr().out
    assert main(["sweep", "--config", plain, "--format", "jsonl"]) == 0
    jsonl = capfd.readouterr().out
    assert csv.startswith("gamma,rho,alpha,seed,status") and jsonl.startswith('{"gamma": ')

    table = tmp_path / "table"
    path = write(tmp_path, QUAD_DOC + f"out = {table}\nformat = jsonl\n" + grid)
    assert main(["sweep", "--config", path]) == 0
    assert capfd.readouterr().out == f"cells=2 diverged=0 wrote={len(jsonl)}B path={table}\n"
    assert table.read_text() == jsonl
    assert main(["sweep", "--config", path, "--format", "csv"]) == 0
    assert table.read_text() == csv
    other = tmp_path / "other"
    assert main(["sweep", "--config", path, "--out", str(other)]) == 0
    assert other.read_text() == jsonl
    assert capfd.readouterr().out.endswith(f"path={other}\n")


# each of seeds 0 to 7 starts the toy at a random point; 0 and 2 to 5 start outside its domain
@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(VALID_VALUES["optimizer"]["mode"]),
       alpha=st.sampled_from(VALID_VALUES["optimizer"]["alpha"]),
       rho=st.sampled_from(VALID_VALUES["optimizer"]["rho"]),
       steps=st.sampled_from(VALID_VALUES["run"]["steps"]),
       seeds=st.lists(st.integers(0, 7), min_size=2, max_size=4, unique=True),
       grid=st.one_of(st.just(""), grid_line("gamma"), grid_line("alpha")))
def test_generated_multi_seed_sweeps_from_random_starts_exit_one_only_before_any_step(
        mode, alpha, rho, steps, seeds, grid):
    optimizer = f"[optimizer]\nmode = {mode}\nalpha = {alpha}\nrho = {rho}\n"
    run_section = f"[run]\ninit = random\nsteps = {steps}\n"
    sweep_section = f"[sweep]\nseed = {', '.join(map(str, seeds))}\n{grid}"
    # the invariants every generated document keeps, checked by that test's body
    test_generated_documents_exit_one_only_before_any_step.hypothesis.inner_test(
        "sweep", optimizer, run_section, sweep_section)
