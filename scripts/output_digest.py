#!/usr/bin/env python3
"""Print one SHA-256 per fixed group of sharpopt outputs.

Each group runs a fixed, seeded set of runs, sweeps or CLI invocations and
hashes their emitted text, so two checkouts whose digests agree give
byte-identical output on every group. To check that a refactor changes no
output, run this script against both checkouts' sources and diff:

    PYTHONPATH=src python3 scripts/output_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/output_digest.py > parent.txt
    diff parent.txt change.txt

or let the script do both sides, with a git ref's src/ as the parent:

    PYTHONPATH=src python3 scripts/output_digest.py --against <git ref>

which prints one "group same|differs" line per group and exits 1 if any
group differs, or 2 if the ref's sources cannot be exported or digested.

A run that blows up is hashed as its failed step, its message and its last
finite record, so failure paths are covered too. The CLI groups also run
with --out and hash the summary line and the written file, with the
temporary directory read as <tmp>. Takes a few seconds.
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
import zipfile
from dataclasses import replace
from pathlib import Path

from sharpopt import cli
from sharpopt.config import ObjectiveSpec, RunConfig, SweepSpec, toy_preset
from sharpopt.runner import NumericBlowup, format_sweep, format_trajectory, run, sweep

MODES = ("vanilla", "sam", "wsam", "coupled")
BASES = ("sgd", "sgdm", "adam")


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
    return h.hexdigest()


def _run_text(cfg: RunConfig, fmt: str) -> str:
    try:
        return format_trajectory(run(cfg), fmt)
    except NumericBlowup as exc:
        rec = exc.last_finite_record
        last = "none" if rec is None else f"{rec.t} {rec.loss!r} {rec.grad_norm!r}"
        return f"blowup {exc.failed_step} {exc} last {last}\n"


def toy_sweeps():
    """4 modes x rho in {1, 2} x 20 gammas x 2 seeds of the toy preset, with eig."""
    gammas = tuple(round(0.05 * i, 2) for i in range(20))
    for rho, mode in itertools.product((1.0, 2.0), MODES):
        cfg = replace(toy_preset(gamma=0.5, mode=mode, steps=150, seed=1234), rho=rho)
        yield sweep(cfg, SweepSpec(gammas=gammas, seeds=(1234, 98765), eig=True))


def toy_runs():
    """4 modes x 3 bases x clip off/on x adaptive off/on x 2 radii; some blow up."""
    for mode, base, clip, adaptive, rho in itertools.product(
        MODES, BASES, (None, 1.0), (False, True), (0.5, 2.0)
    ):
        yield RunConfig(objective=ObjectiveSpec(kind="toy"), mode=mode, base_kind=base,
                        alpha=5.0, rho=rho, gamma=0.8, clip_norm=clip, adaptive=adaptive,
                        steps=150, init=(-6.0, 10.0))


def logistic_runs():
    """Mini-batch logistic runs, 4 modes x 3 bases."""
    for mode, base in itertools.product(MODES, BASES):
        yield RunConfig(objective=ObjectiveSpec(kind="logistic", num_examples=64, dim=6),
                        mode=mode, base_kind=base, alpha=0.05, rho=0.05, gamma=0.7,
                        batch_size=8, steps=60, seed=5, init=None)


def logistic_sweeps():
    """A mini-batch adam logistic sweep with eig per mode, 2 seeds."""
    spec = SweepSpec(gammas=(0.0, 0.5, 0.9), rhos=(0.05, 0.5), seeds=(0, 3), eig=True)
    for mode in MODES:
        cfg = RunConfig(objective=ObjectiveSpec(kind="logistic", num_examples=64, dim=6),
                        mode=mode, base_kind="adam", alpha=0.05, rho=0.05, batch_size=8,
                        steps=40, init=None)
        yield format_sweep(sweep(cfg, spec))


def quadratic_sweeps():
    """Batch-2 quadratic sweeps, 4 modes x 3 bases; the alpha >= 50 rows blow up.

    The alpha = 1e200 rows fail at step 2 in one stack with rows that fail
    later (sgd and sgdm at alpha = 50 fail at step 79) and rows that finish.
    """
    spec = SweepSpec(gammas=(0.0, 0.5), alphas=(0.1, 50.0, 1e200), seeds=(0, 1), eig=True)
    for mode, base in itertools.product(MODES, BASES):
        cfg = RunConfig(
            objective=ObjectiveSpec(kind="quadratic", a=(2.0, 1.0),
                                    centers=((1.0, -1.0), (0.5, 0.5), (-1.0, 2.0), (0.0, 0.3))),
            mode=mode, base_kind=base, rho=0.2, batch_size=2, steps=100, init=None,
            init_scale=4.0,
        )
        yield format_sweep(sweep(cfg, spec))


def _cli(argv, tmp: str, out: str | None = None) -> str:
    """Exit code, stdout and stderr of `sharpopt argv`, then the file written to out, if any.

    An argv that argparse rejects reads as its exit code and usage text. With out, argv
    gains `--out <out>`; tmp reads as <tmp> in stdout and stderr.
    """
    if out is not None:
        argv = [*argv, "--out", out]
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected argv; its usage text is in stderr
            code = exc.code
    stdout.flush()
    text = (f"exit {code}\n{stdout.buffer.getvalue().decode('utf-8')}"
            f"stderr\n{stderr.getvalue()}").replace(tmp, "<tmp>")
    if out is not None and os.path.exists(out):
        with open(out, "r", encoding="utf-8") as fh:
            text += f"file\n{fh.read()}"
        os.remove(out)
    return text


def cli_toy():
    """`sharpopt toy` for gamma in {0, 0.6, 0.95} x 4 modes, then gamma 0.95 with --out."""
    with tempfile.TemporaryDirectory() as tmp:
        for gamma, mode in itertools.product(("0", "0.6", "0.95"), MODES):
            yield _cli(["toy", "--gamma", gamma, "--mode", mode], tmp)
        for mode in MODES:
            argv = ["toy", "--gamma", "0.95", "--mode", mode]
            yield _cli(argv, tmp, os.path.join(tmp, "toy.csv"))


TOY_DOC = "[objective]\nkind = toy\n"

# (subcommand, document): valid run and sweep documents
VALID_DOCS = (
    ("run", TOY_DOC + "[optimizer]\nmode = coupled\ngamma = 0.8\n[run]\nsteps = 30\n"),
    ("run", "[objective]\nkind = quadratic\na = 2.0, 1.0\ncenters = 1.0, -1.0 | 0.0, 0.5\n"
            "[optimizer]\nmode = wsam\nbase = adam\nalpha = 0.05\nrho = 0.3\ngamma = 0.7\n"
            "batch_size = 1\n[run]\nsteps = 40\nseed = 3\ninit = random\nformat = jsonl\n"),
    ("run", "[objective]\nkind = logistic\nnum_examples = 32\ndim = 4\nnoise_fraction = 0.1\n"
            "[optimizer]\nalpha = 0.1\nrho = 0.05\nbatch_size = 8\n"
            "[run]\nsteps = 25\nseed = 2\nrecord_every = 5\n"),
    ("sweep", TOY_DOC + "[run]\nsteps = 60\n[sweep]\ngamma = 0, 0.5, 0.9\nrho = 1, 2\neig = true\n"),
)

# one document per kind of input error, two of them with a second fault that
# must not be the one reported
INVALID_DOCS = (
    ("run", "[objective]\nkind = cubic\n"),
    ("run", "[objective]\nkind = toy\na = 1, 2\n"),
    ("run", "[objective]\nkind = quadratic\ncsv = data.csv\n"),
    ("run", "[objective]\nkind = cubic\na = abc\n"),
    ("run", "[objective]\nkind = toy\na = abc\n"),
    ("sweep", TOY_DOC + "[sweep]\ngamma = 0.5\nmax_cells = 0\n"),
    ("sweep", TOY_DOC + "[sweep]\ngamma = 0.1, 0.2, 0.3\nmax_cells = 2\n"),
    ("run", TOY_DOC + "[optimizer]\nmomentun = 0.5\n"),
)


def cli_config():
    """`sharpopt run|sweep --config` on every document, then on each valid one with --out.

    Then `eig --at final|init` on each valid run document, `bound` on the
    README example and with a NaN radius, and `check-grad`.
    """
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for i, (command, doc) in enumerate(VALID_DOCS + INVALID_DOCS):
            path = os.path.join(tmp, f"{i}.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
            argvs.append([command, "--config", path])
        for argv in argvs:
            yield _cli(argv, tmp)
        for argv in argvs[:len(VALID_DOCS)]:
            yield _cli(argv, tmp, os.path.join(tmp, "out"))
        for (command, _), argv in zip(VALID_DOCS, argvs):
            if command == "run":
                for at in ("final", "init"):
                    yield _cli(["eig", *argv[1:], "--at", at], tmp)
        for rho in ("0.1", "nan"):  # the README example, then a NaN radius
            yield _cli(["bound", "--d", "10", "--m", "1000", "--n", "5", "--rho", rho, "--gamma",
                        "0.9", "--delta", "0.05", "--wnorm", "1", "--loss", "0.1"], tmp)
        yield _cli(["check-grad"], tmp)


def digests():
    """(group, SHA-256) pairs, one group at a time, for the sharpopt imported here."""
    sweeps = list(toy_sweeps())
    groups = {
        "toy_sweep_csv": (format_sweep(rows, "csv") for rows in sweeps),
        "toy_sweep_jsonl": (format_sweep(rows, "jsonl") for rows in sweeps),
        "toy_runs_csv": (_run_text(cfg, "csv") for cfg in toy_runs()),
        "toy_runs_jsonl": (_run_text(cfg, "jsonl") for cfg in toy_runs()),
        "logistic_runs": (
            _run_text(cfg, fmt) for cfg in logistic_runs() for fmt in ("csv", "jsonl")
        ),
        "logistic_sweeps": logistic_sweeps(),
        "quadratic_sweeps": quadratic_sweeps(),
        "cli_toy": cli_toy(),
        "cli_config": cli_config(),
    }
    for name, texts in groups.items():
        yield name, _digest(texts)


def _ref_digests(ref: str) -> dict[str, str]:
    """This script's digests over the src/ of git ref ref, run in a subprocess.

    Raises RuntimeError, naming ref, when the sources cannot be exported or digested.
    """
    root = Path(__file__).resolve().parents[1]
    command = ["git", "-C", str(root), "archive", "--format=zip", ref, "src"]
    try:
        archive = subprocess.run(command, capture_output=True, check=True).stdout
    except subprocess.CalledProcessError as exc:
        raise RuntimeError(f"git archive cannot export src/ of {ref!r}: "
                           f"{exc.stderr.decode(errors='replace').strip()}") from None
    except OSError as exc:
        raise RuntimeError(f"git archive cannot export src/ of {ref!r}: {exc}") from None
    with tempfile.TemporaryDirectory() as tmp:
        with zipfile.ZipFile(io.BytesIO(archive)) as zf:
            zf.extractall(tmp)
        paths = [os.path.join(tmp, "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                              env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"the digest of {ref!r} failed:\n{proc.stderr.strip()}")
    return dict(line.split(" ") for line in proc.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="compare every group with the src/ of this git ref")
    args = parser.parse_args(argv)
    if args.against is None:
        for name, digest in digests():
            print(f"{name} {digest}", flush=True)
        return 0
    try:
        theirs = _ref_digests(args.against)
    except RuntimeError as exc:
        print(f"output_digest: {exc}", file=sys.stderr)
        return 2
    differs = False
    for name, digest in digests():
        same = theirs.get(name) == digest
        differs = differs or not same
        print(f"{name} {'same' if same else 'differs'}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main())
