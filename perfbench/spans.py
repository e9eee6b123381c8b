"""Outside-in span recorder for the traced run.

Wraps public functions of the package under test, in the process
that runs each layer, without editing the package.  Each wrapped call
records a span (layer name, start, end, parent span, operation id,
thread); spans stay in memory and are written once, at the end, as a
Chrome trace-event document.  A layer's self time is its spans'
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (owner module path, attribute path, layer) for every engine-side
#: boundary: app build, simulation, capture, cache and session.
ENGINE_LAYERS = (
    ("repro.engine.catalog", "build_app", "apps.build"),
    ("repro.core.processor", "ImagineProcessor.run", "core.event.run"),
    ("repro.core.vector", "VectorProcessor.run", "core.vector.run"),
    ("repro.obs.profile", "build_profile", "obs.profile"),
    ("repro.obs.critpath", "build_critpath", "obs.critpath"),
    ("repro.obs.critpath", "critpath_summary", "obs.critpath"),
    ("repro.obs.critpath", "build_whatif", "obs.whatif"),
    ("repro.engine.cache", "ResultCache.load", "cache.load"),
    ("repro.engine.cache", "ResultCache.store", "cache.store"),
    ("repro.engine.session", "Session.submit", "session"),
    ("repro.engine.session", "RunHandle.outcome", "session"),
)

#: Service-side boundaries (admission, journal, artifact store).
SERVE_LAYERS = (
    ("repro.serve.service", "ExperimentService.submit", "serve.submit"),
    ("repro.serve.journal", "JobJournal.append", "serve.journal_append"),
    ("repro.serve.artifacts", "ArtifactStore.load", "serve.artifact_load"),
    ("repro.serve.artifacts", "ArtifactStore.store",
     "serve.artifact_store"),
)


@dataclass
class Span:
    span_id: int
    parent: int
    op: Any
    name: str
    start_ns: int
    end_ns: int
    thread: int
    #: Outcome of the call: True for a hit (a load that returned
    #: something), the simulated cycles of a run, bytes written, ...
    note: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _note(name: str, args: tuple, result: Any) -> Any:
    """What a layer's metrics need from one call's result."""
    if name in ("cache.load", "serve.artifact_load"):
        return result is not None
    if name == "serve.submit":
        return result[1] is not None          # served from artifact
    if name in ("core.event.run", "core.vector.run"):
        return float(result.metrics.total_cycles)
    if name == "cache.store":
        path = args[0]._object_path(args[1])
        try:
            return (path.stat().st_size
                    + path.with_suffix(".json").stat().st_size)
        except OSError:
            return 0
    return None


class SpanRecorder:
    """Records spans while ``enabled``; patches are undone by
    :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    def install(self, layers) -> None:
        """Wrap each ``(module, attribute path, layer)`` boundary."""
        import importlib

        for module_name, path, layer in layers:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, layer))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original: Callable, layer: str) -> Callable:
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            returned = False
            try:
                result = original(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                recorder.spans.append(Span(
                    span_id, parent, getattr(recorder._local, "op", None),
                    layer, start, end, threading.get_ident(),
                    _note(layer, args, result) if returned else None))

        return wrapper

    @contextlib.contextmanager
    def operation(self, op: Any) -> Iterator[None]:
        """Mark one benchmark operation: a root span whose id tags
        every layer span recorded on this thread inside it."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        self._local.op = op
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._local.op = None
            self.spans.append(Span(span_id, 0, op, "op", start, end,
                                   threading.get_ident()))

    # ------------------------------------------------------------------
    # Analysis.
    # ------------------------------------------------------------------
    def chrome_trace(self, process_name: str,
                     spans: list[Span]) -> dict[str, Any]:
        """The spans as a Chrome trace-event document (complete
        events on the monotonic clock, in microseconds, so documents
        from two processes of one run line up)."""
        pid = os.getpid()
        lanes: dict[int, int] = {}
        events: list[dict[str, Any]] = []
        for span in sorted(spans, key=lambda s: (s.start_ns, s.span_id)):
            tid = lanes.setdefault(span.thread, len(lanes) + 1)
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": tid,
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "id": f"{pid}:{span.span_id}",
                "args": {"op": str(span.op), "parent": span.parent}})
        meta = [{"name": "process_name", "ph": "M", "pid": pid,
                 "tid": 0, "ts": 0, "args": {"name": process_name}}]
        meta += [{"name": "thread_name", "ph": "M", "pid": pid,
                  "tid": tid, "ts": 0,
                  "args": {"name": f"thread-{tid}"}}
                 for tid in sorted(lanes.values())]
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    own = {span.span_id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration_ns
    return own


def layer_totals(spans: list[Span]) -> dict[str, dict[str, Any]]:
    """Layer -> calls, summed self time (ns) and the calls' notes."""
    own = self_times(spans)
    totals: dict[str, dict[str, Any]] = {}
    for span in spans:
        slot = totals.setdefault(span.name,
                                 {"calls": 0, "self_ns": 0, "notes": []})
        slot["calls"] += 1
        slot["self_ns"] += own[span.span_id]
        if span.note is not None:
            slot["notes"].append(span.note)
    return totals


def layer_metrics(totals: dict[str, dict[str, Any]], ops: int
                  ) -> dict[str, float]:
    """The per-layer metrics that spans alone determine: calls per
    operation, mean self ms per call, and the derived ratios."""
    ops = max(ops, 1)

    def slot(name: str) -> dict[str, Any]:
        return totals.get(name, {"calls": 0, "self_ns": 0, "notes": []})

    def per_call_ms(name: str) -> float:
        entry = slot(name)
        return entry["self_ns"] / entry["calls"] / 1e6 if entry["calls"] \
            else 0.0

    def ratio(name: str) -> float:
        notes = slot(name)["notes"]
        return sum(1 for hit in notes if hit) / len(notes) if notes else 0.0

    out: dict[str, float] = {}
    for layer in ("apps.build", "cache.store", "cache.load", "obs.profile",
                  "obs.critpath", "obs.whatif", "core.event.run",
                  "core.vector.run", "serve.submit", "serve.journal_append",
                  "serve.artifact_load", "serve.artifact_store"):
        out[f"{layer}_calls"] = slot(layer)["calls"] / ops
        out[f"{layer}_ms"] = per_call_ms(layer)
    for backend in ("event", "vector"):
        entry = slot(f"core.{backend}.run")
        kcycles = sum(entry["notes"]) / 1e3
        out[f"core.{backend}.us_per_kcycle"] = (
            entry["self_ns"] / 1e3 / kcycles if kcycles else 0.0)
    stored = slot("cache.store")["notes"]
    out["cache.entry_kb"] = (sum(stored) / len(stored) / 1024
                             if stored else 0.0)
    out["cache.bytes_written"] = sum(stored) / ops
    out["cache.hit_ratio"] = ratio("cache.load")
    out["serve.artifact_hit_ratio"] = ratio("serve.artifact_load")
    out["session.self_ms"] = per_call_ms("session")
    op_ns = sum(entry["self_ns"] for entry in totals.values())
    op_self = slot("op")["self_ns"]
    out["apps.build_share"] = (slot("apps.build")["self_ns"] / op_ns
                               if op_ns else 0.0)
    out["unattributed_ms"] = op_self / ops / 1e6
    out["attributed_share"] = 1.0 - op_self / op_ns if op_ns else 0.0
    return out
