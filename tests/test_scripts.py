"""The experiment scripts run end to end on small inputs."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,expected", [
    ("regret_experiment.py", ["--seeds", "1", "--horizon", "400", "--centers", "64"],
     [("seed 0: R(250)=", "")]),
    ("toy_trajectories.py", [], [("sam ", " sharp "), ("coupled g=0.95 ", " flat ")]),
    ("minima_report.py", ["--rhos", "2.0"],
     [("sharp ", ""), ("flat ", ""), ("at rho=2 the flat basin has the lower weighted loss", "")]),
])
def test_script_exits_zero_with_its_expected_lines(script, args, expected):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for start, part in expected:
        assert any(ln.startswith(start) and part in ln for ln in lines), (start, part)


def test_output_digest_prints_one_sha256_per_group():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    groups = [ln.split(" ") for ln in proc.stdout.splitlines()]
    assert [name for name, _ in groups] == [
        "toy_sweep_csv", "toy_sweep_jsonl", "toy_runs_csv", "toy_runs_jsonl",
        "logistic_runs", "logistic_sweeps", "quadratic_sweeps", "cli_toy", "cli_config",
    ]
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in groups)


def test_output_digest_against_an_unknown_ref_exits_two_before_any_group():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py"), "--against", "no-such-ref"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2
    assert "'no-such-ref'" in proc.stderr
    assert proc.stdout == ""


def test_output_digest_hashes_an_argv_that_argparse_rejects(tmp_path):
    spec = importlib.util.spec_from_file_location("output_digest",
                                                  ROOT / "scripts" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    text = digest._cli(["bound", "--d", "10"], str(tmp_path))
    assert text.startswith("exit 1\nstderr\nusage: sharpopt bound ")
    assert "error: the following arguments are required: --m, --n" in text
