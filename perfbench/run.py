"""sharpopt benchmark: one workload per run, end-to-end metrics or a traced split.

    python3 perfbench/run.py --workload toy_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures the untouched program
and reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced passes and reports the per-layer split. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("toy_sweep", "logistic_adam", "quadratic_centres", "cli_cold")
SETUP_PROBES = 5
IMPORT_PROBES = 5
CATALOG_PROBES = 3
MIN_PASSES = 2
BLAS_THREADS = 1  # see fingerprint.pin_blas_threads
# enough ops that ten lie above the 90th percentile
MIN_OPS = 100

END_TO_END = [
    ("steps_per_s", "steps/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _python(*argv: str) -> str:
    """Run a child interpreter to completion and return its standard output."""
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"child {argv[:3]} failed: {done.stderr.strip()[-500:]}")
    return done.stdout


# --- set-up ----------------------------------------------------------------


def _setup_probe(name: str, seed: int) -> None:
    """In a fresh process: import, build inputs, warm caches; print the seconds it took."""
    t0 = perf_counter()
    import workloads

    w = workloads.WORKLOADS[name](seed)
    elapsed = perf_counter() - t0
    w.close()
    print(repr(elapsed))


def _setup_seconds(name: str, seed: int) -> list[float]:
    here = str(Path(__file__).resolve())
    return [float(_python(here, "--workload", name, "--seed", str(seed), "--seconds", "1",
                          "--setup-probe").split()[-1])
            for _ in range(SETUP_PROBES)]


# --- measuring -------------------------------------------------------------


class Ledger:
    """Every op attempted, its time, and every failure; failures are never dropped."""

    def __init__(self):
        self.samples: list[tuple] = []  # (op, seconds)
        self.pass_seconds: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run_pass(self, ops, pass_idx: int, tracer=None) -> float:
        total = 0.0
        for op in ops:
            self.attempted += 1
            error = None
            t0 = perf_counter_ns()
            try:
                if tracer is None:
                    out = op.call(pass_idx)
                else:
                    with tracer.span(f"bench.op.{op.kind}"):
                        out = op.call(pass_idx)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                error = f"{op.key}: {type(exc).__name__}: {exc}"
            dt = (perf_counter_ns() - t0) / 1e9
            total += dt
            self.samples.append((op, dt))
            if error is None:
                error = _check(op, out, tracer)
            if error is not None:
                self.failures.append(f"pass {pass_idx}: {error}")
        self.pass_seconds.append(total)
        return total


def _check(op, out, tracer) -> str | None:
    import workloads

    if tracer is not None:
        tracer.enabled = False
    try:
        op.check(out)
    except workloads.CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a check that cannot even run counts the op as failed
        return f"{op.key}: check raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.enabled = True
    return None


def _peak_rss_mb(workload) -> float:
    kb = workload.peak_rss_kb()
    if kb is None:
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def measure_end_to_end(workload, seconds: float, setup: list[float]):
    ops = workload.ops(in_process=False)
    ledger = Ledger()
    start = perf_counter()
    while (len(ledger.pass_seconds) < MIN_PASSES or ledger.attempted < MIN_OPS
           or perf_counter() - start < seconds):
        ledger.run_pass(ops, len(ledger.pass_seconds))
    times_ms = [dt * 1e3 for _, dt in ledger.samples]
    steps_per_pass = sum(op.steps for op in ops)
    metrics = {
        "steps_per_s": steps_per_pass / statistics.median(ledger.pass_seconds),
        "op_ms_p50": statistics.median(times_ms),
        "op_ms_p90": statistics.quantiles(times_ms, n=10)[8],
        "peak_rss_mb": _peak_rss_mb(workload),
        "setup_s": statistics.median(setup),
    }
    notes = {
        "steps_per_s": f"{steps_per_pass} steps per pass / median of {len(ledger.pass_seconds)} passes",
        "op_ms_p50": f"n={len(times_ms)} ops",
        "op_ms_p90": f"n={len(times_ms)} ops, {sum(t > metrics['op_ms_p90'] for t in times_ms)} above",
        "peak_rss_mb": "CLI child processes" if workload.peak_rss_kb() else "this process",
        "setup_s": f"median of {len(setup)} fresh processes",
    }
    return ledger, metrics, notes


def _cost_x_vanilla(samples) -> dict[str, float]:
    """Each mode's time per step over vanilla's, per op kind, geometric mean over kinds."""
    import layers

    per_step: dict[tuple, list[float]] = {}
    for op, dt in samples:
        if op.steps:
            per_step.setdefault((op.kind, op.mode), []).append(dt / op.steps)
    out = {}
    for mode in layers.MODES[1:]:
        ratios = [statistics.median(per_step[(kind, mode)]) / statistics.median(v)
                  for (kind, m), v in per_step.items()
                  if m == "vanilla" and (kind, mode) in per_step]
        out[f"sam.cost_x_vanilla.{mode}"] = statistics.geometric_mean(ratios) if ratios else 0.0
    return out


def _catalog_ms(workload) -> float:
    """Cold toy_minima build, where the workload pays for the catalog."""
    if not workload.uses_toy_catalog:
        return 0.0
    from sharpopt import analysis

    times = []
    for _ in range(CATALOG_PROBES):
        analysis.toy_minima.cache_clear()
        t0 = perf_counter_ns()
        analysis.toy_minima()
        times.append((perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def _import_ms(workload) -> float:
    """Cold `import sharpopt` on top of an imported numpy, in fresh processes."""
    if workload.name != "cli_cold":
        return 0.0
    code = ("import time, numpy; t = time.perf_counter(); import sharpopt; "
            "print(repr((time.perf_counter() - t) * 1e3))")
    return statistics.median(float(_python("-c", code).split()[-1]) for _ in range(IMPORT_PROBES))


def measure_layers(workload, seconds: float, spans_path: Path):
    import layers
    import tracer as tr

    ops = workload.ops(in_process=True)
    ledger = Ledger()
    untraced, traced, per_pass = [], [], []
    untraced_samples = []
    start = perf_counter()
    pass_idx = 0
    while len(traced) < MIN_PASSES or perf_counter() - start < seconds:
        untraced.append(ledger.run_pass(ops, pass_idx))
        untraced_samples += ledger.samples[-len(ops):]
        t = tr.Tracer(kept=layers.KEPT)
        patches = tr.install(t, layers.TARGETS)
        try:
            traced.append(ledger.run_pass(ops, pass_idx, t))
        finally:
            tr.uninstall(patches)
        left = tr.wrapped_names()
        if left:
            ledger.failures.append(f"wrappers left after uninstall: {left}")
        profile = t.profile()
        m = layers.pass_metrics(profile)
        ledger.failures += [f"pass {pass_idx}: {e}" for e in layers.evaluations_per_step_errors(m, profile)]
        negative = sorted({k[0] for k, v in profile.agg.items() if v[2] < 0})
        if negative:
            ledger.failures.append(f"pass {pass_idx}: negative self time in {negative}")
        if not per_pass:
            profile.write_spans(str(spans_path))
        per_pass.append(m)
        pass_idx += 1

    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in layers.COUNTS:
            if len(set(values)) != 1:
                ledger.failures.append(f"count {name} changed between passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics.update(_cost_x_vanilla(untraced_samples))
    metrics["analysis.toy_minima.ms"] = _catalog_ms(workload)
    metrics["cli.import_ms"] = _import_ms(workload)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    notes = {"trace.overhead_frac": f"median of {len(traced)} traced / {len(untraced)} untraced passes"}
    return ledger, metrics, notes


# --- reporting -------------------------------------------------------------


def _report(args, fp, ledger, metrics, units, notes) -> dict:
    # a traced run can also fail as a whole (say, a count that did not repeat);
    # such a failure marks the run incorrect without counting more ops than ran
    failed = min(len(ledger.failures), ledger.attempted)
    for failure in ledger.failures[:20]:
        print(f"# FAILED {failure}")
    by_key: dict[str, list[float]] = {}
    for op, dt in ledger.samples:
        by_key.setdefault(op.key, []).append(dt * 1e3)
    for key, times in by_key.items():
        print(f"# op {key}: median {statistics.median(times):.4g} ms, "
              f"min {min(times):.4g}, max {max(times):.4g} (n={len(times)})")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<{width}} = {value:.6g} {units[name]}{note}")
    print(f"{'fail_frac':<{width}} = {failed / ledger.attempted:.6g} ratio"
          f"  ({failed} of {ledger.attempted} ops)")
    print("# detail " + json.dumps({"workload": args.workload, "seed": args.seed,
                                   "trace": args.trace, "fingerprint": fp,
                                   "failures": ledger.failures[:20]}))
    return {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def _run_all(args) -> int:
    """Each workload in its own fresh process, one after another; a summary table."""
    here = str(Path(__file__).resolve())
    ok = True
    rows = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, here, "--workload", name, "--seed", str(args.seed),
                               "--seconds", repr(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(f"## {name}\n{done.stdout}")
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("## summary")
    for name, result in rows:
        cells = "" if args.trace else ", ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "sharpopt" / "__init__.py").is_file():
        print(f"perfbench: no sharpopt source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)

    import sharpopt

    if Path(sharpopt.__file__).resolve().parent != ROOT / "src" / "sharpopt":
        print(f"perfbench: imported sharpopt from {sharpopt.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from fingerprint import fingerprint, pin_blas_threads

    fp = fingerprint(ROOT, pin_blas_threads(BLAS_THREADS))
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# fingerprint " + json.dumps(fp))

    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.trace:
            import layers

            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ledger, metrics, notes = measure_layers(workload, args.seconds, spans)
            units = layers.UNITS
            metrics = {n: metrics[n] for n, _ in layers.PER_LAYER}
            print(f"# spans of the first traced pass: {spans.relative_to(ROOT)}")
        else:
            ledger, metrics, notes = measure_end_to_end(workload, args.seconds, setup)
            units = dict(END_TO_END)
    finally:
        workload.close()
    result = _report(args, fp, ledger, metrics, units, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
