"""Bench-side spans around the public calls into each program layer.

:func:`install` wraps the public methods and functions each layer
exposes (the program itself is not modified) so a traced run can say
where its time went.  Every wrapper records one span — name, start,
end, parent, drive/batch context, thread — and adds the span's *self
time* (its duration minus its child spans) to its layer.  Spans stay
in memory until :meth:`Recorder.write_jsonl` at the end of the run.
Spans are timed on the CPU clock of their thread (``time.thread_time``),
so a span's start and end order spans within a thread, not across
threads.

Wrappers cost one flag test while ``Recorder.enabled`` is False, which
is how a traced run interleaves traced and untraced units to measure
the tracing overhead in one process.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


class _Aggregate:
    """Per-thread totals; merged on read so no update needs a lock."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[list] = []

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}


class Recorder:
    """Spans and per-layer totals of one benchmark process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: list[_Aggregate] = []
        self._lock = threading.Lock()

    def _agg(self) -> _Aggregate:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = _Aggregate()
            with self._lock:
                self._aggregates.append(agg)
            self._local.agg = agg
        return agg

    # -- spans ------------------------------------------------------------
    def enter(self, name: str, ctx: str | None):
        agg = self._agg()
        stack = agg.stack
        parent = stack[-1] if stack else None
        if ctx is None and parent is not None:
            ctx = parent[4]
        entry = [next(self._ids), name, time.thread_time(), 0.0, ctx,
                 parent[0] if parent is not None else 0]
        stack.append(entry)
        return agg, entry

    def exit(self, token) -> float:
        """Close the span; returns its duration in seconds."""
        end = time.thread_time()
        agg, entry = token
        agg.stack.pop()
        sid, name, start, child_s, ctx, parent_id = entry
        duration = end - start
        if agg.stack:
            agg.stack[-1][3] += duration
        agg.self_s[name] += duration - child_s
        agg.calls[name] += 1
        self.spans.append((sid, parent_id, name, start, end, ctx,
                           threading.get_ident()))
        return duration

    def count(self, key: str, amount: float = 1) -> None:
        if self.enabled:
            self._agg().counts[key] += amount

    # -- results ----------------------------------------------------------
    def totals(self) -> dict:
        """Merged aggregates of every thread."""
        out = {"self_s": defaultdict(float), "calls": defaultdict(int),
               "counts": defaultdict(float)}
        for part in [agg.to_dict() for agg in self._aggregates]:
            for field, values in part.items():
                for key, value in values.items():
                    out[field][key] += value
        return out

    def write_jsonl(self, path: Path) -> int:
        """One span per line."""
        with open(path, "w") as fh:
            for sid, parent, name, start, end, ctx, tid in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "ctx": ctx, "thread": tid,
                }) + "\n")
        return len(self.spans)


def _wrap(rec: Recorder, layer: str, fn, ctx=None, tally=None):
    """``fn`` recorded as a ``layer`` span; ``ctx(args)`` labels the span
    and its children, ``tally(args, result, seconds)`` returns counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        token = rec.enter(layer, ctx(args) if ctx else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.exit(token)
        if tally is not None:
            for key, amount in tally(args, result, seconds).items():
                rec.count(key, amount)
        return result

    return wrapper


def _cache_get(rec: Recorder, kind: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hit = fn(*args, **kwargs)
        if rec.enabled:
            rec.count(f"cache.{kind}.{'hits' if hit is not None else 'misses'}")
        return hit

    return wrapper


def _subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        current = todo.pop()
        seen.append(current)
        todo.extend(current.__subclasses__())
    return seen


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points (idempotent per process)."""
    import repro  # noqa: F401  (imports every policy and gate class)
    from repro.core.ecofusion import BranchOutputCache, EcoFusionModel
    from repro.core.gating.base import Gate
    from repro.hardware.battery import BatteryState
    from repro.policies.base import PerceptionPolicy
    from repro.resilience.monitor import HealthMonitor
    from repro.simulation import closed_loop
    from repro.simulation.drive import DriveCursor

    if getattr(EcoFusionModel.stem_features, "__bench_wrapped__", False):
        return

    def patch(owner, attr, wrapped):
        wrapped.__bench_wrapped__ = True
        setattr(owner, attr, wrapped)

    def span(layer, owner, attr, **kw):
        patch(owner, attr, _wrap(rec, layer, getattr(owner, attr), **kw))

    span("simulation.drive", DriveCursor, "__next__")
    span("core.stems", EcoFusionModel, "stem_features_cached")
    span("core.stems", EcoFusionModel, "gate_features")
    span("core.stems", EcoFusionModel, "stem_features",
         tally=lambda a, result, s: {"core.stems.rows": len(a[1]),
                                     "core.stems.row_calls": 1})
    span("perception.branches", EcoFusionModel, "branch_outputs")
    span("perception.branches", EcoFusionModel, "branch_outputs_windowed")
    span("perception.branches", EcoFusionModel, "run_branch",
         tally=lambda a, result, s: {"perception.branches.rows": len(result),
                                     "perception.branches.row_calls": 1})
    span("fusion", EcoFusionModel, "fuse_single")
    span("fusion", EcoFusionModel, "fuse_config")
    for cls in _subclasses(Gate):
        for attr in ("predict_losses", "predict_losses_windowed",
                     "select_direct", "smooth"):
            if attr in cls.__dict__:
                span("core.gating", cls, attr)
    for cls in _subclasses(PerceptionPolicy):
        if "decide" in cls.__dict__:
            span("policies", cls, "decide")
    span("resilience.monitor", HealthMonitor, "observe")
    span("hardware.battery", BatteryState, "drive_step")
    span("evaluation.map", closed_loop, "evaluate_map")
    span("evaluation.loss", closed_loop, "fusion_loss")

    runner = closed_loop.ClosedLoopRunner
    span("simulation.closed_loop", runner, "run",
         ctx=lambda a: f"{a[1].name}/{a[2].name}",
         tally=lambda a, trace, s: {"frames": trace.num_frames})
    batches = itertools.count()
    span("simulation.closed_loop", runner, "serve_batch",
         ctx=lambda a: f"batch{next(batches)}",
         tally=lambda a, result, s: {"frames": len(a[1]),
                                     "serving.items": len(a[1]),
                                     "serving.batches": 1,
                                     "serving.busy_s": s})
    span("simulation.closed_loop", runner, "open_drive")
    span("simulation.closed_loop", runner, "close_drive")

    for kind, attr in (("branch", "get"), ("fused", "get_fused"),
                       ("stem", "get_stem")):
        patch(BranchOutputCache, attr,
              _cache_get(rec, kind, getattr(BranchOutputCache, attr)))

