"""Tests of the benchmark's own machinery: run with `python3 -m pytest -q perfbench`."""
from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import tracer as tr  # noqa: E402


def _busy(ns: int) -> None:
    end = perf_counter_ns() + ns
    while perf_counter_ns() < end:
        pass


def _tree(t: tr.Tracer, tag: str):
    """root -> (mid -> leaf, leaf), leaf; every node also does work of its own."""
    leaf = t.wrap(lambda: _busy(50_000), f"{tag}.leaf")

    def mid_body():
        _busy(30_000)
        leaf()

    mid = t.wrap(mid_body, f"{tag}.mid")

    def root_body():
        _busy(20_000)
        mid()
        leaf()

    return t.wrap(root_body, f"{tag}.root")


def test_self_times_sum_to_root_per_thread():
    t = tr.Tracer()
    roots = {tag: _tree(t, tag) for tag in ("a", "b")}
    start = threading.Barrier(2)

    def drive(tag):
        start.wait()
        for _ in range(20):
            roots[tag]()

    threads = [threading.Thread(target=drive, args=(tag,)) for tag in roots]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
        assert not th.is_alive()

    p = t.profile()
    assert all(v[2] >= 0 for v in p.agg.values())
    for tag in roots:
        names = [n for n in p.names() if n.startswith(tag + ".")]
        assert sum(p.self_ns(n) for n in names) == p.total_ns(f"{tag}.root")
        assert p.calls(f"{tag}.root") == 20 and p.calls(f"{tag}.leaf") == 40


def test_fanout_span_loses_the_union_of_its_cross_thread_children():
    t = tr.Tracer()
    child = t.wrap(lambda: time.sleep(0.005), "child")

    def body():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: child(), range(6)))

    parent = t.wrap(body, "parent", fanout=True)
    parent()

    p = t.profile()
    (span,) = [s for s in p.spans if s.name == "parent"]
    kids = [s for s in p.spans if s.parent_sid == span.sid]
    assert len(kids) == 6 and all(k.thread != span.thread for k in kids)
    covered = tr._union_ns([(k.start_ns, k.end_ns) for k in kids], span.start_ns, span.end_ns)
    assert 0 <= span.self_ns == (span.end_ns - span.start_ns) - covered
    # two workers sleeping through six 5 ms children overlap, covering 15 ms or more
    assert 15_000_000 <= covered < sum(k.end_ns - k.start_ns for k in kids)
    assert p.self_ns("parent") == span.self_ns


def _bindings(targets):
    """Every (owner, attribute) -> object that install would replace."""
    for t in targets:
        importlib.import_module(t.where.partition(":")[0])
    found = {}
    for t in targets:
        module_name, _, path = t.where.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        if isinstance(owner, type):
            found[(owner, attr)] = owner.__dict__[attr]
            continue
        original = getattr(owner, attr)
        for mod in tr._package_modules("sharpopt"):
            for key, value in vars(mod).items():
                if value is original:
                    found[(mod, key)] = original
    return found


def test_uninstall_restores_every_patched_object():
    before = _bindings(layers.TARGETS)
    t = tr.Tracer()
    patches = tr.install(t, layers.TARGETS)
    assert len(patches) == len(before)
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) is not original, (owner, attr)

    tr.uninstall(patches)
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, (owner, attr)
    assert tr.wrapped_names() == []

    import sharpopt

    sharpopt.run(sharpopt.toy_preset(0.5, steps=3))
    assert t.profile().agg.get(("runner.run", None, False)) is None


def _traced_toy_runs():
    import sharpopt

    t = tr.Tracer(kept=layers.KEPT)
    patches = tr.install(t, layers.TARGETS)
    try:
        for mode in layers.MODES:
            sharpopt.run(sharpopt.toy_preset(0.9, mode=mode, steps=7))
    finally:
        tr.uninstall(patches)
    p = t.profile()
    return layers.pass_metrics(p), p


def test_gradient_evaluations_per_step_are_exact_and_repeat():
    first, p = _traced_toy_runs()
    assert layers.evaluations_per_step_errors(first, p) == []
    assert first["objectives.loss_grad.calls_per_step.vanilla"] == 1
    for mode in ("sam", "wsam", "coupled"):
        assert first[f"objectives.loss_grad.calls_per_step.{mode}"] == 2
    assert first["runner.records_kept"] == 4 * 7
    second, _ = _traced_toy_runs()
    assert {k: first[k] for k in layers.COUNTS if k in first} == {
        k: second[k] for k in layers.COUNTS if k in second}


def test_benchmark_json_names_what_the_benchmark_reports():
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    # what a traced pass does not give, run.py measures around it
    around = {"analysis.toy_minima.ms", "cli.import_ms", "trace.overhead_frac"}
    around |= {f"sam.cost_x_vanilla.{m}" for m in layers.MODES[1:]}
    assert set(layers.pass_metrics(tr.Profile({}, [], {}))) | around == set(layers.UNITS)
