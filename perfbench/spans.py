"""In-memory span tracer that wraps the program's layer functions from outside.

A span records a name, a start, an end and the span that caused it.  Spans
are kept in memory and exported when the traced run ends.  A span's self
time is its duration minus the part of that interval its child spans cover.

Each wrapper is installed at the name its callers resolve.  ``duality``
imports ``simulate_ancestry`` and ``step_frequency_many`` directly, so the
wrappers go on ``duality.<name>``; ``bridge`` and ``cli`` reach the engines
through module attributes, so ``fvwrs.ensemble_states`` and
``bcre.final_state`` are wrapped on their own modules.  ``RateCache.get``
runs once per Gillespie step, so it only counts and opens no span.

``wrapper_costs`` times the wrappers on a no-op function, so the time tracing
adds to a run can be estimated from the spans and counted calls it made.
"""

from __future__ import annotations

import contextlib
import functools
import math
import statistics
import threading
import time
import types
from collections import Counter, defaultdict


class Tracer:
    """Spans and counters of one traced run; wrappers are undone by restore."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent record]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo: list[tuple] = []
        self._counted: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, list]:
        stack = self._stack()
        # a span opened in a worker thread is caused by the span open in the
        # thread that started the trace
        causes = stack or self._main_stack
        record = [name, time.perf_counter(), math.nan,
                  causes[-1] if causes else None]
        self.spans.append(record)
        stack.append(record)
        return record, stack

    @staticmethod
    def _close(record: list, stack: list) -> None:
        record[2] = time.perf_counter()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record, stack = self._open(name)
        try:
            yield
        finally:
            self._close(record, stack)

    def add(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a version that records a span ``name``.

        ``counts(args, kwargs, result)`` returns (counter, amount) pairs
        to add after each call.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record, stack)
            if counts is not None:
                for key, amount in counts(args, kwargs, result):
                    self.add(key, amount)
            return result

        self._patch(owner, attr, traced)

    def count(self, owner, attr: str, key: str) -> None:
        """Replace ``owner.attr`` by a version that counts calls in ``key``."""
        fn = getattr(owner, attr)
        self._counted.add(key)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def counted_calls(self) -> int:
        """Calls made through the wrappers of ``count``."""
        return sum(self.counts[key] for key in self._counted)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def times(self) -> tuple[dict, dict]:
        """Summed duration and summed self time per span name."""
        children = defaultdict(list)
        for record in self.spans:
            if record[3] is not None:
                children[id(record[3])].append((record[1], record[2]))
        duration: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for record in self.spans:
            name, start, end, _ = record
            duration[name] += end - start
            own[name] += (end - start) - _covered(start, end,
                                                  children[id(record)])
        return duration, own

    def export(self) -> list[dict]:
        """Spans as records with times relative to the first span's start."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": index[id(parent)] if parent is not None else None}
                for name, start, end, parent in self.spans]


def wrapper_costs(calls: int = 20000, reps: int = 5) -> tuple[float, float]:
    """Seconds a ``wrap`` wrapper and a ``count`` wrapper add to one call.

    Each is the median over ``reps`` timings of ``calls`` calls of a no-op,
    wrapped, less the same calls unwrapped.  The ``wrap`` wrapper adds one
    counter per call, as ``bcre.final_state``'s does.
    """
    def per_call(wrap) -> float:
        box = types.SimpleNamespace(f=lambda: None)
        tracer = Tracer()
        wrap(tracer, box)
        f = box.f
        t0 = time.perf_counter()
        for _ in range(calls):
            f()
        return (time.perf_counter() - t0) / calls

    def median_cost(wrap) -> float:
        plain = lambda tracer, box: None  # noqa: E731
        return max(0.0, statistics.median(
            per_call(wrap) - per_call(plain) for _ in range(reps)))

    span = median_cost(lambda tracer, box: tracer.wrap(
        box, "f", "noop", lambda *_: [("noop", 1)]))
    count = median_cost(lambda tracer, box: tracer.count(box, "f", "noop"))
    return span, count


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    run_start = run_end = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if run_end is None or lo > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_end is not None:
        total += run_end - run_start
    return total


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _cells(args, kwargs, result):
    # the engine steps to the last requested time, each rounded to a dt cell
    times = _arg(args, kwargs, 2, "times")
    dt = float(_arg(args, kwargs, 3, "dt"))
    M = int(_arg(args, kwargs, 4, "M"))
    n_cells = max((int(round(float(t) / dt)) for t in times), default=0)
    return [("fvwrs.cells", M * n_cells)]


def _ancestry(args, kwargs, result):
    env = _arg(args, kwargs, 2, "env")
    return [("wf_graph.ancestry_paths", 1),
            ("wf_graph.ancestry_generations", len(env)),
            ("wf_graph.saturations", int(result.saturations))]


def _forward(args, kwargs, result):
    return [("wf_graph.forward_replicate_generations", int(result.size))]


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark's workloads cross."""
    from wfduality import bcre, bridge, duality, fvwrs, thresholds

    tracer.wrap(fvwrs, "ensemble_states", "fvwrs.ensemble_states", _cells)
    tracer.wrap(bcre, "final_state", "bcre.final_state",
                lambda *_: [("bcre.paths", 1)])
    tracer.count(bcre.RateCache, "get", "bcre.steps")
    tracer.wrap(bcre, "jump_rates", "bcre.jump_rates",
                lambda *_: [("bcre.rate_builds", 1)])
    tracer.wrap(bcre, "stationary_estimate", "bcre.stationary_estimate")
    tracer.wrap(duality, "simulate_ancestry", "wf_graph.simulate_ancestry",
                _ancestry)
    tracer.wrap(duality, "step_frequency_many",
                "wf_graph.step_frequency_many", _forward)
    for fn in ("moment_check", "annealed_check"):
        tracer.wrap(duality, fn, f"duality.{fn}")
    tracer.wrap(bridge, "fixation_via_duality", "bridge.fixation_via_duality")
    tracer.wrap(thresholds, "classify", "thresholds.classify")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run: name -> (value, unit).

    ``cli.self_s`` needs the run wrapped in a ``cli.run`` span.
    """
    duration, own = tracer.times()
    c = tracer.counts

    def module_self(module: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(module + "."))

    ensemble = duration["fvwrs.ensemble_states"]
    gillespie = own["bcre.final_state"]
    stationary = own["bcre.stationary_estimate"]
    builds = duration["bcre.jump_rates"]
    ancestry = duration["wf_graph.simulate_ancestry"]
    forward = duration["wf_graph.step_frequency_many"]
    steps = c["bcre.steps"]
    return {
        "fvwrs.ensemble_s": (ensemble, "s"),
        "fvwrs.cells": (c["fvwrs.cells"], "count"),
        "fvwrs.cells_per_s": (_rate(c["fvwrs.cells"], ensemble), "1/s"),
        "bcre.paths": (c["bcre.paths"], "count"),
        "bcre.steps": (steps, "count"),
        "bcre.gillespie_s": (gillespie, "s"),
        "bcre.steps_per_s": (_rate(steps, gillespie + stationary + builds),
                             "1/s"),
        "bcre.rate_builds": (c["bcre.rate_builds"], "count"),
        "bcre.rate_build_s": (builds, "s"),
        "bcre.rate_hit_ratio": (
            1.0 - c["bcre.rate_builds"] / steps if steps else 0.0, "ratio"),
        "bcre.stationary_s": (stationary, "s"),
        "wf_graph.ancestry_s": (ancestry, "s"),
        "wf_graph.ancestry_paths": (c["wf_graph.ancestry_paths"], "count"),
        "wf_graph.ancestry_generations": (
            c["wf_graph.ancestry_generations"], "count"),
        "wf_graph.ancestry_generations_per_s": (
            _rate(c["wf_graph.ancestry_generations"], ancestry), "1/s"),
        "wf_graph.saturations": (c["wf_graph.saturations"], "count"),
        "wf_graph.forward_s": (forward, "s"),
        "wf_graph.forward_replicate_generations": (
            c["wf_graph.forward_replicate_generations"], "count"),
        "wf_graph.forward_rate": (
            _rate(c["wf_graph.forward_replicate_generations"], forward),
            "1/s"),
        "duality.self_s": (module_self("duality"), "s"),
        "bridge.self_s": (module_self("bridge"), "s"),
        "thresholds.classify_s": (duration["thresholds.classify"], "s"),
        "cli.self_s": (own["cli.run"], "s"),
    }
