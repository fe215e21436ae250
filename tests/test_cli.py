"""Command-line surface: outputs, exit codes, and the subprocess entry point."""
import subprocess
import sys

import pytest

from sharpopt import cli
from sharpopt.cli import main

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
