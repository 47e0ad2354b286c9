"""In-memory span recorder and the per-layer metrics derived from its spans.

A span is (name, start, end, parent, attributes).  The current span lives in
a ContextVar, and `PropagatingExecutor` copies the submitting thread's context
into each pool task, so a span opened on a worker thread gets the open
`risk.simulate_records` span of the submitting thread as its parent.

A span's self time is its duration minus the union of its children's
intervals: children on parallel workers overlap, so summing them would count
one wall-clock second twice.  The layer of a span is its name up to the first
dot.
"""

from __future__ import annotations

import contextvars
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Task:
    """One pool task: a worker's busy interval inside a pooled call."""

    parent: int | None
    start: float
    end: float


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tasks: list[Task] = []
        self._lock = threading.Lock()

    def open(self, name: str, start: float | None = None) -> tuple[Span, contextvars.Token]:
        start = time.perf_counter() if start is None else start
        with self._lock:
            span = Span(len(self.spans), name, _current.get(), start)
            self.spans.append(span)
        return span, _current.set(span.id)

    def close(self, span: Span, token: contextvars.Token):
        span.end = time.perf_counter()
        _current.reset(token)

    def wrap(self, name: str, fn, on_return=None):
        """`fn` inside a span; `on_return(span, args, kwargs, result)` adds attributes."""

        def traced(*args, **kwargs):
            span, token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span, token)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return traced

    def executor_class(self):
        tracer = self

        class PropagatingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()

                def task():
                    start = time.perf_counter()
                    try:
                        return ctx.run(fn, *args, **kwargs)
                    finally:
                        with tracer._lock:
                            tracer.tasks.append(
                                Task(ctx.get(_current), start, time.perf_counter())
                            )

                return super().submit(task)

        return PropagatingExecutor


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of [start, end] intervals clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.id: s.duration - union_length(
            ((c.start, c.end) for c in children.get(s.id, ())), s.start, s.end
        )
        for s in spans
    }


def _p50_max(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    return statistics.median(values), max(values)


def layer_metrics(spans: list[Span], tasks: list[Task]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced CLI pass, as {name: (value, unit)}."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def busy(layer):
        return sum(s.duration for s in spans if s.layer == layer)

    out: dict[str, tuple[float, str]] = {}
    root = named("cli")[0]
    out["trace.wall_s"] = (root.duration, "s")
    out["cli.self_s"] = (own[root.id], "s")
    out["import.busy_s"] = (busy("import"), "s")
    out["config.load_s"] = (busy("config"), "s")
    out["calibration.build_s"] = (busy("calibration"), "s")

    shocks = named("shocks.sample_loss_matrix")
    chunk_p50, chunk_max = _p50_max([s.duration for s in shocks])
    n_shock_rows = sum(s.attrs["scenarios"] for s in shocks)
    out["shocks.busy_s"] = (busy("shocks"), "s")
    out["shocks.calls"] = (len(shocks), "count")
    out["shocks.scenarios"] = (n_shock_rows, "count")
    out["shocks.chunk_s_p50"] = (chunk_p50, "s")
    out["shocks.chunk_s_max"] = (chunk_max, "s")
    out["shocks.bytes_out_computed"] = (sum(s.attrs["bytes_out"] for s in shocks), "bytes")

    clearing = named("clearing.clear_tiered_batch")
    chunk_p50, chunk_max = _p50_max([s.duration for s in clearing])
    iterations = [s.attrs["iterations"] for s in clearing]
    out["clearing.busy_s"] = (busy("clearing"), "s")
    out["clearing.calls"] = (len(clearing), "count")
    out["clearing.scenarios"] = (sum(s.attrs["scenarios"] for s in clearing), "count")
    out["clearing.iterations_total"] = (sum(iterations), "count")
    out["clearing.iterations_max"] = (max(iterations, default=0), "count")
    out["clearing.chunk_s_p50"] = (chunk_p50, "s")
    out["clearing.chunk_s_max"] = (chunk_max, "s")
    out["clearing.bytes_per_iteration_computed"] = (
        max((s.attrs["bytes_per_iteration"] for s in clearing), default=0), "bytes"
    )

    sim = named("risk.simulate_records")
    call_p50, call_max = _p50_max([own[s.id] for s in sim])
    out["risk.self_s"] = (sum(own[s.id] for s in spans if s.layer == "risk"), "s")
    out["risk.self_s_call_p50"] = (call_p50, "s")
    out["risk.self_s_call_max"] = (call_max, "s")
    out["risk.simulate_calls"] = (len(sim), "count")
    # a call that ran its chunks on the calling thread is one fully busy worker
    task_busy: dict[int, float] = {}
    for t in tasks:
        task_busy[t.parent] = task_busy.get(t.parent, 0.0) + (t.end - t.start)
    busy_s = sum(task_busy.get(s.id, s.duration) for s in sim)
    capacity = sum(s.duration * (s.attrs["workers"] if s.id in task_busy else 1) for s in sim)
    out["risk.worker_utilisation"] = (busy_s / capacity if capacity else 0.0, "ratio")

    lookups = named("risk.frontier.losses")
    lookup_ids = {s.id for s in lookups}
    evaluations = [s for s in sim if s.parent in lookup_ids]
    hits = len(lookups) - len(evaluations)
    out["risk.frontier.lookups"] = (len(lookups), "count")
    out["risk.frontier.evaluations"] = (len(evaluations), "count")
    out["risk.frontier.cache_hits"] = (hits, "count")
    out["risk.frontier.cache_hit_ratio"] = (hits / len(lookups) if lookups else 0.0, "ratio")
    out["risk.frontier.scenarios_simulated"] = (
        sum(s.attrs["scenarios"] for s in evaluations), "count"
    )

    writes = [s for s in spans if s.layer == "report"]
    out["report.busy_s"] = (busy("report"), "s")
    out["report.files"] = (len(writes), "count")
    out["report.bytes_written"] = (sum(s.attrs["bytes"] for s in writes), "bytes")
    return out
