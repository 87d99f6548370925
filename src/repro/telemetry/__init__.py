"""``repro.telemetry`` — frame-level tracing, metrics and profiling.

The observability substrate under the drive stack.  Three layers, all
zero-dependency and **disabled by default** — the no-op instruments are
the process-wide defaults, the hot path is unperturbed, and compiled
drives stay bit-identical whether or not telemetry is on (telemetry
only *reads* values; it never participates in arithmetic):

* :mod:`~repro.telemetry.tracing` — nested monotonic-clock spans
  (``drive > step > gate / frame / branches``) with per-span
  attributes, an in-memory tree and JSONL export;
* :mod:`~repro.telemetry.metrics` — counters / gauges / fixed-bucket
  histograms keyed by name+labels, with p50/p90/p99 summaries computed
  from bucket counts and associatively mergeable snapshots (how
  ``run_sweep`` aggregates across ``--jobs`` pool shards);
* :mod:`~repro.telemetry.profiling` — opt-in per-kernel replay timing
  for ``repro.nn.engine`` programs (top-k kernels by cumulative time).

The :class:`Telemetry` facade bundles one tracer with one registry.
Sites resolve telemetry in two steps: an explicitly injected instance
(``ClosedLoopRunner(telemetry=...)``) wins; otherwise the process-local
default (:func:`get_default`) applies, which is ``NULL_TELEMETRY``
unless :func:`set_default` installed something.

Enable everything for one drive::

    from repro.telemetry import Telemetry

    tel = Telemetry.create()                      # tracing + metrics on
    runner = ClosedLoopRunner(model, telemetry=tel)
    trace = runner.run(spec, policy)
    print(tel.tracer.format_tree())
    tel.tracer.write_jsonl("trace_drive.jsonl")
    snapshot = tel.metrics.snapshot()             # JSON/mergeable
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (
    ENERGY_BUCKETS_J,
    LATENCY_BUCKETS_MS,
    OCCUPANCY_BUCKETS,
    SERVING_LATENCY_BUCKETS_MS,
    UNIT_BUCKETS,
    WALL_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_histogram,
    merge_snapshots,
    metric_key,
    split_metric_key,
    summarize_snapshot,
)
from .profiling import KernelProfiler, kernel_profiling
from .report import (
    SUMMARY_SCHEMA,
    build_summary,
    load_summary,
    validate_summary,
    write_summary,
)
from .tracing import NOOP_SPAN, NullTracer, Span, Tracer, read_jsonl

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "get_default",
    "set_default",
    # tracing
    "Tracer",
    "NullTracer",
    "Span",
    "NOOP_SPAN",
    "read_jsonl",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "metric_key",
    "split_metric_key",
    "merge_snapshots",
    "summarize_snapshot",
    "aggregate_histogram",
    "LATENCY_BUCKETS_MS",
    "ENERGY_BUCKETS_J",
    "WALL_BUCKETS_S",
    "UNIT_BUCKETS",
    "SERVING_LATENCY_BUCKETS_MS",
    "OCCUPANCY_BUCKETS",
    # profiling
    "KernelProfiler",
    "kernel_profiling",
    # report
    "SUMMARY_SCHEMA",
    "build_summary",
    "write_summary",
    "validate_summary",
    "load_summary",
]


@dataclass
class Telemetry:
    """One tracer + one metrics registry, handed around as a unit."""

    tracer: Tracer | NullTracer = field(default_factory=NullTracer)
    metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=False)
    )

    @property
    def active(self) -> bool:
        """True when either tracing or metrics would record anything."""
        return self.tracer.enabled or self.metrics.enabled

    @classmethod
    def create(cls, tracing: bool = True, metrics: bool = True,
               max_spans: int = 250_000) -> "Telemetry":
        """An enabled instance (either layer can be opted out)."""
        return cls(
            tracer=Tracer(max_spans=max_spans) if tracing else NullTracer(),
            metrics=MetricsRegistry(enabled=metrics),
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fully inert instance (same behavior as the default)."""
        return cls()


# The process-local default: inert.  ``set_default`` swaps it (e.g. a
# serving process enabling metrics for every drive it hosts) and
# returns the previous value so scopes can restore it.
NULL_TELEMETRY = Telemetry()
_DEFAULT = NULL_TELEMETRY


def get_default() -> Telemetry:
    """The process-local default telemetry (inert unless installed)."""
    return _DEFAULT


def set_default(telemetry: Telemetry | None) -> Telemetry:
    """Install ``telemetry`` as the process default; returns the old one.

    ``None`` restores the inert default.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = telemetry if telemetry is not None else NULL_TELEMETRY
    return previous
