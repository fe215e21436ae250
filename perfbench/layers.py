"""Which sharpopt functions the traced run wraps, and the per-layer metrics.

Layers are the package's modules. Each metric is computed from one traced
pass; ``COUNTS`` lists the metrics that are exact counts and must repeat
exactly from pass to pass and run to run, the rest are times.
"""
from __future__ import annotations

from tracer import Profile, Target

MODES = ("vanilla", "sam", "wsam", "coupled")
SUBCOMMANDS = ("toy", "run", "sweep", "eig")
STEP_NAMES = tuple(f"sam.step.{m}" for m in MODES) + ("sam.step_sgd_wsam",)

# Spans kept one by one; everything else is only aggregated.
KEPT = ("bench.", "runner.run", "runner.sweep", "runner.format", "runner.emit",
        "analysis.power_iteration", "analysis.classify_minimum", "analysis.toy_minima",
        "config.", "cli.")

# Floating-point operations and bytes moved per loss_grad call, computed from
# array shapes (b rows in the batch, n dimensions), dominant terms only.
# Logistic: two GEMVs over the gathered rows; the gather reads and writes
# them once, each GEMV reads them once. Quadratic: difference, weighted
# square, sum, gradient and accumulation per centre; each centre row is read
# once. Toy: a hand count of the scalar operations in the two-basin formula.
COST_MODELS = {
    "Logistic": lambda b, n: (4 * b * n, 32 * b * n),
    "Quadratic": lambda b, n: (6 * b * n, 8 * b * n),
    "ToyLandscape": lambda b, n: (64, 32),
}


def _count_flops(tracer, args, kwargs):
    obj = args[0]
    batch = args[2] if len(args) > 2 else kwargs.get("batch")
    indices = None if batch is None else batch.indices
    b = obj.num_examples if indices is None else len(indices)
    flops, nbytes = COST_MODELS[type(obj).__name__](b, obj.dim)
    tracer.count("loss_grad.flops", flops)
    tracer.count("loss_grad.bytes", nbytes)


def _step_name(args, kwargs):
    sam_cfg = args[5] if len(args) > 5 else kwargs["sam_cfg"]
    return f"sam.step.{sam_cfg.mode}"


def _main_name(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.main.{argv[0]}"


def _counter(name, value_of):
    return lambda tracer, result: tracer.count(name, value_of(result))


TARGETS = [
    Target("sharpopt.core:as_vector", "core.as_vector"),
    Target("sharpopt.core:l2_norm", "core.l2_norm"),
    Target("sharpopt.core:dot", "core.dot"),
    Target("sharpopt.core:precond_solve", "core.precond_solve"),
    Target("sharpopt.core:DiagPrecond.__post_init__", "core.DiagPrecond"),
    Target("sharpopt.objectives:ToyLandscape.loss_grad", "objectives.loss_grad",
           on_call=_count_flops),
    Target("sharpopt.objectives:Quadratic.loss_grad", "objectives.loss_grad",
           on_call=_count_flops),
    Target("sharpopt.objectives:Logistic.loss_grad", "objectives.loss_grad",
           on_call=_count_flops),
    Target("sharpopt.objectives:BatchSampler.batch_at", "objectives.batch_at"),
    Target("sharpopt.base_optimizers:compute_direction", "base_optimizers.compute_direction"),
    Target("sharpopt.base_optimizers:apply_update", "base_optimizers.apply_update"),
    Target("sharpopt.sam:step", "sam.step", name_of=_step_name),
    Target("sharpopt.sam:step_sgd_wsam", "sam.step_sgd_wsam"),
    Target("sharpopt.sam:perturb", "sam.perturb"),
    Target("sharpopt.sam:clip_to_norm", "sam.clip_to_norm"),
    Target("sharpopt.analysis:power_iteration", "analysis.power_iteration",
           on_result=_counter("power_iteration.iters", lambda r: r.iterations_used)),
    Target("sharpopt.analysis:hvp", "analysis.hvp"),
    Target("sharpopt.analysis:classify_minimum", "analysis.classify_minimum"),
    Target("sharpopt.analysis:toy_minima", "analysis.toy_minima"),
    Target("sharpopt.runner:run", "runner.run",
           on_result=_counter("run.records", lambda r: len(r.records))),
    Target("sharpopt.runner:sweep", "runner.sweep", fanout=True),
    Target("sharpopt.runner:build_objective", "runner.build_objective"),
    Target("sharpopt.runner:format_trajectory", "runner.format"),
    Target("sharpopt.runner:format_sweep", "runner.format"),
    Target("sharpopt.runner:emit", "runner.emit",
           on_result=_counter("emit.bytes", lambda r: r)),
    Target("sharpopt.config:parse_config", "config.parse"),
    Target("sharpopt.config:parse_sweep_config", "config.parse"),
    Target("sharpopt.config:toy_preset", "config.parse"),
    Target("sharpopt.cli:main", "cli.main", name_of=_main_name),
]

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("core.as_vector.calls_per_step", "calls/step"),
    ("core.as_vector.self_ms", "ms"),
    ("core.l2_norm.calls_per_step", "calls/step"),
    ("core.l2_norm.self_ms", "ms"),
    ("core.precond.self_ms", "ms"),
    ("objectives.loss_grad.calls_per_step", "calls/step"),
    *[(f"objectives.loss_grad.calls_per_step.{m}", "calls/step") for m in MODES],
    ("objectives.loss_grad.self_ms", "ms"),
    ("objectives.loss_grad.flops_per_call", "flop"),
    ("objectives.loss_grad.bytes_per_call", "B"),
    ("objectives.loss_grad.gflops_s", "GFLOP/s"),
    ("objectives.batch_at.calls", "count"),
    ("objectives.batch_at.self_ms", "ms"),
    ("base_optimizers.compute_direction.self_ms", "ms"),
    ("base_optimizers.apply_update.self_ms", "ms"),
    ("sam.step.self_ms", "ms"),
    ("sam.perturb.self_ms", "ms"),
    ("sam.clip_to_norm.self_ms", "ms"),
    *[(f"sam.step_us.{m}", "us") for m in MODES],
    *[(f"sam.cost_x_vanilla.{m}", "x") for m in MODES[1:]],
    ("analysis.power_iteration.self_ms", "ms"),
    ("analysis.power_iteration.iters", "count"),
    ("analysis.hvp.calls", "count"),
    ("analysis.classify_minimum.self_ms", "ms"),
    ("analysis.toy_minima.ms", "ms"),
    ("runner.run.self_ms", "ms"),
    ("runner.records_kept", "count"),
    ("runner.sweep.self_ms", "ms"),
    ("runner.sweep.threads", "count"),
    ("runner.build_objective.self_ms", "ms"),
    ("runner.format.self_ms", "ms"),
    ("runner.emit.self_ms", "ms"),
    ("runner.emit.bytes", "B"),
    ("config.parse.self_ms", "ms"),
    *[(f"cli.main.self_ms.{s}", "ms") for s in SUBCOMMANDS],
    ("cli.import_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]
UNITS = dict(PER_LAYER)

# which worker thread takes which sweep cell is up to the pool, so the thread
# count is reported as measured rather than required to repeat
COUNTS = frozenset(
    name for name, unit in PER_LAYER if unit in ("calls/step", "count", "flop", "B")
) - {"runner.sweep.threads"}


def _ms(ns: float) -> float:
    return ns / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(p: Profile) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer the pass never called reads 0."""
    steps = {m: p.calls(f"sam.step.{m}") for m in MODES}
    all_steps = sum(steps.values()) + p.calls("sam.step_sgd_wsam")
    lg_calls = p.calls("objectives.loss_grad")
    out = {
        "core.as_vector.calls_per_step": _ratio(p.calls("core.as_vector", in_step=True), all_steps),
        "core.as_vector.self_ms": _ms(p.self_ns("core.as_vector")),
        "core.l2_norm.calls_per_step": _ratio(p.calls("core.l2_norm", in_step=True), all_steps),
        "core.l2_norm.self_ms": _ms(p.self_ns("core.l2_norm")),
        "core.precond.self_ms": _ms(p.self_ns("core.DiagPrecond") + p.self_ns("core.precond_solve")),
        "objectives.loss_grad.calls_per_step": _ratio(
            p.calls("objectives.loss_grad", in_step=True), all_steps),
        "objectives.loss_grad.self_ms": _ms(p.self_ns("objectives.loss_grad")),
        "objectives.loss_grad.flops_per_call": _ratio(p.counters.get("loss_grad.flops", 0), lg_calls),
        "objectives.loss_grad.bytes_per_call": _ratio(p.counters.get("loss_grad.bytes", 0), lg_calls),
        # flops per nanosecond of inclusive loss_grad time is GFLOP/s
        "objectives.loss_grad.gflops_s": _ratio(
            p.counters.get("loss_grad.flops", 0), p.total_ns("objectives.loss_grad")),
        "objectives.batch_at.calls": p.calls("objectives.batch_at"),
        "objectives.batch_at.self_ms": _ms(p.self_ns("objectives.batch_at")),
        "base_optimizers.compute_direction.self_ms": _ms(
            p.self_ns("base_optimizers.compute_direction")),
        "base_optimizers.apply_update.self_ms": _ms(p.self_ns("base_optimizers.apply_update")),
        "sam.step.self_ms": _ms(sum(p.self_ns(n) for n in STEP_NAMES)),
        "sam.perturb.self_ms": _ms(p.self_ns("sam.perturb")),
        "sam.clip_to_norm.self_ms": _ms(p.self_ns("sam.clip_to_norm")),
        "analysis.power_iteration.self_ms": _ms(p.self_ns("analysis.power_iteration")),
        "analysis.power_iteration.iters": p.counters.get("power_iteration.iters", 0),
        "analysis.hvp.calls": p.calls("analysis.hvp"),
        "analysis.classify_minimum.self_ms": _ms(p.self_ns("analysis.classify_minimum")),
        "runner.run.self_ms": _ms(p.self_ns("runner.run")),
        "runner.records_kept": p.counters.get("run.records", 0),
        "runner.sweep.self_ms": _ms(p.self_ns("runner.sweep")),
        "runner.sweep.threads": _sweep_threads(p),
        "runner.build_objective.self_ms": _ms(p.self_ns("runner.build_objective")),
        "runner.format.self_ms": _ms(p.self_ns("runner.format")),
        "runner.emit.self_ms": _ms(p.self_ns("runner.emit")),
        "runner.emit.bytes": p.counters.get("emit.bytes", 0),
        "config.parse.self_ms": _ms(p.self_ns("config.parse")),
    }
    for m in MODES:
        out[f"objectives.loss_grad.calls_per_step.{m}"] = _ratio(
            p.calls("objectives.loss_grad", parent=f"sam.step.{m}"), steps[m])
        out[f"sam.step_us.{m}"] = _ratio(p.total_ns(f"sam.step.{m}"), steps[m]) / 1e3
    for s in SUBCOMMANDS:
        out[f"cli.main.self_ms.{s}"] = _ms(p.self_ns(f"cli.main.{s}"))
    return out


def evaluations_per_step_errors(metrics: dict[str, float], p: Profile) -> list[str]:
    """The hardware-free cost unit: 1 gradient evaluation per vanilla step, 2 otherwise."""
    errors = []
    for m in MODES:
        if p.calls(f"sam.step.{m}") == 0:
            continue
        want = 1 if m == "vanilla" else 2
        got = metrics[f"objectives.loss_grad.calls_per_step.{m}"]
        if got != want:
            errors.append(f"loss_grad calls per {m} step = {got}, expected {want}")
    return errors


def _sweep_threads(p: Profile) -> int:
    """Most threads any one sweep ran its cells on (1 when cells ran inline)."""
    sweeps = {s.sid: s.thread for s in p.spans if s.name == "runner.sweep"}
    workers: dict[int, set[int]] = {sid: set() for sid in sweeps}
    for s in p.spans:
        if s.parent_sid in sweeps and s.thread != sweeps[s.parent_sid]:
            workers[s.parent_sid].add(s.thread)
    return max((max(1, len(t)) for t in workers.values()), default=0)
