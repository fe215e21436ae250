"""In-memory span tracer that instruments sharpopt from outside its source.

``install`` replaces public functions and methods of the ``sharpopt``
modules with timing wrappers; ``uninstall`` puts every original object back,
so a run that never installs, or has uninstalled, executes the untouched
program.

Each thread keeps its own span stack. A span's self time is its duration
minus the time its child spans cover. Children on the same thread never
overlap, so their durations add up. A span marked ``fanout`` hands work to
other threads (``runner.sweep`` runs its cells on a thread pool): spans that
start on an empty stack of another thread while it is open become its
cross-thread children, and it loses the union of their intervals, because
those children run concurrently with each other.

Every call is aggregated per (name, parent name, inside-a-step). Spans whose
name starts with one of the ``kept`` prefixes, and spans that open a
thread's stack, are also kept one by one with start, end, parent and thread,
and can be written out at the end.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

STEP_PREFIX = "sam.step"


class _Frame:
    __slots__ = ("name", "start", "child_ns", "sid", "parent_sid", "parent_name", "in_step")


class _ThreadLog:
    """Everything one thread recorded; merged once tracing ends."""

    def __init__(self, ident: int):
        self.ident = ident
        self.stack: list[_Frame] = []
        self.agg: dict[tuple, list[int]] = {}
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent_sid: int | None
    thread: int
    start_ns: int
    end_ns: int
    self_ns: int


@dataclass(frozen=True)
class Profile:
    """Merged record of one tracer: every thread's aggregates, spans and counters.

    ``agg`` maps (name, parent name, inside a step) to [calls, total ns,
    self ns]; self times already include the cross-thread correction.
    """

    agg: dict
    spans: list
    counters: dict

    def calls(self, name: str, parent: str | None = None, in_step: bool | None = None) -> int:
        """Calls of name; parent and in_step narrow the match when given."""
        return sum(v[0] for v in self._match(name, parent, in_step))

    def total_ns(self, name: str) -> int:
        return sum(v[1] for v in self._match(name))

    def self_ns(self, name: str) -> int:
        return sum(v[2] for v in self._match(name))

    def names(self) -> set[str]:
        return {k[0] for k in self.agg}

    def _match(self, name, parent=None, in_step=None):
        return [v for (n, par, step), v in self.agg.items()
                if n == name and parent in (None, par) and in_step in (None, step)]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


class Tracer:
    """Collects spans and counters from any number of threads until ``profile``."""

    def __init__(self, kept: tuple[str, ...] = ()):
        self.kept = kept
        self.enabled = True
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._logs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._fanout: tuple[int, str, int] | None = None  # (sid, name, thread)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._logs_lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def count(self, name: str, value: float = 1) -> None:
        counters = self._log().counters
        counters[name] = counters.get(name, 0) + value

    def enter(self, name: str, fanout: bool = False) -> tuple[_ThreadLog, _Frame]:
        log = self._log()
        f = _Frame()
        f.name = name
        f.child_ns = 0
        f.sid = next(self._ids)
        if log.stack:
            parent = log.stack[-1]
            f.parent_sid = parent.sid
            f.parent_name = parent.name
            f.in_step = parent.in_step or parent.name.startswith(STEP_PREFIX)
        else:
            fan = self._fanout
            if fan is not None and fan[2] != log.ident:
                f.parent_sid, f.parent_name = fan[0], fan[1]
            else:
                f.parent_sid = f.parent_name = None
            f.in_step = False
        if fanout:
            self._fanout = (f.sid, name, log.ident)
        log.stack.append(f)
        f.start = perf_counter_ns()
        return log, f

    def leave(self, log: _ThreadLog, f: _Frame, fanout: bool = False) -> None:
        end = perf_counter_ns()
        stack = log.stack
        stack.pop()
        dur = end - f.start
        self_ns = dur - f.child_ns
        if stack:
            stack[-1].child_ns += dur
        key = (f.name, f.parent_name, f.in_step)
        rec = log.agg.get(key)
        if rec is None:
            log.agg[key] = [1, dur, self_ns]
        else:
            rec[0] += 1
            rec[1] += dur
            rec[2] += self_ns
        if not stack or f.name.startswith(self.kept):
            log.spans.append((f.sid, f.name, f.parent_sid, f.parent_name, f.in_step,
                              log.ident, f.start, end, self_ns))
        if fanout:
            self._fanout = None

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around code it calls."""
        log, f = self.enter(name)
        try:
            yield
        finally:
            self.leave(log, f)

    def wrap(self, fn, name: str, *, name_of=None, on_call=None, on_result=None,
             fanout: bool = False):
        """A stand-in for fn that times every call while the tracer is enabled.

        name_of(args, kwargs) refines the span name per call; on_call sees the
        arguments and on_result the return value, both outside the span.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if name_of is None else name_of(args, kwargs)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            log, f = tracer.enter(span_name, fanout)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(log, f, fanout)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__perfbench_span__ = name
        return wrapper

    def profile(self) -> Profile:
        """Merge every thread's log and apply the cross-thread correction."""
        with self._logs_lock:
            logs = list(self._logs)
        agg: dict[tuple, list[int]] = {}
        counters: dict[str, float] = {}
        raw = []
        for log in logs:
            if log.stack:
                raise RuntimeError(f"span {log.stack[-1].name!r} is still open")
            for k, v in log.agg.items():
                acc = agg.setdefault(k, [0, 0, 0])
                for i in range(3):
                    acc[i] += v[i]
            for k, v in log.counters.items():
                counters[k] = counters.get(k, 0) + v
            raw.extend(log.spans)

        by_sid = {r[0]: r for r in raw}
        foreign: dict[int, list[tuple[int, int]]] = {}
        for sid, name, parent_sid, parent_name, in_step, thread, start, end, _ in raw:
            parent = by_sid.get(parent_sid)
            if parent is not None and parent[5] != thread:
                foreign.setdefault(parent_sid, []).append((start, end))
        spans = []
        for sid, name, parent_sid, parent_name, in_step, thread, start, end, self_ns in raw:
            covered = _union_ns(foreign.get(sid, ()), start, end)
            if covered:
                self_ns -= covered
                agg[(name, parent_name, in_step)][2] -= covered
            spans.append(Span(sid, name, parent_sid, thread, start, end, self_ns))
        spans.sort(key=lambda s: s.start_ns)
        return Profile(agg, spans, counters)


def _union_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# --- patching -------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``"pkg.module:func"`` or ``"pkg.module:Class.method"``."""

    where: str
    name: str
    name_of: object = None
    on_call: object = None
    on_result: object = None
    fanout: bool = False


def _package_modules(package: str):
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))]


def install(tracer: Tracer, targets, package: str = "sharpopt") -> list[tuple]:
    """Wrap every target; returns the (owner, attribute, original) patch list.

    A module function is replaced under every name that binds it in any
    module of the package, since ``from .core import l2_norm`` copies the
    binding into the importing module. A method is replaced on its class.
    """
    for t in targets:  # every module first, so no binding is scanned for too early
        importlib.import_module(t.where.partition(":")[0])
    patches: list[tuple] = []
    try:
        for t in targets:
            module_name, _, attr_path = t.where.partition(":")
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = tracer.wrap(original, t.name, name_of=t.name_of, on_call=t.on_call,
                                  on_result=t.on_result, fanout=t.fanout)
            if isinstance(owner, type):
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in _package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
    except BaseException:
        uninstall(patches)
        raise
    return patches


def uninstall(patches: list[tuple]) -> None:
    """Restore every original object, last patch first."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


def wrapped_names(package: str = "sharpopt") -> list[str]:
    """Every binding in the package that still holds a tracer wrapper."""
    found = []
    for mod in _package_modules(package):
        for key, value in vars(mod).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for ckey, cvalue in vars(value).items():
                    if hasattr(cvalue, "__perfbench_span__"):
                        found.append(f"{mod.__name__}.{key}.{ckey}")
    return found
