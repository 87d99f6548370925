"""Nested spans over the monotonic clock, with JSONL export.

A :class:`Tracer` records a tree of :class:`Span`s —
``drive > step > gate / frame / branches`` — each carrying wall-free
monotonic timings plus arbitrary attributes (configuration chosen,
energy J, SoC, step size).  Spans are context
managers and **exception-safe**: a span that unwinds through an error
is still closed and timed, tagged with the exception type, and the
stack is restored, so a crashing sweep worker leaves a readable trace
instead of a corrupt one.

The default tracer is a :class:`NullTracer` whose :meth:`span` returns
one shared no-op context manager — the disabled hot path allocates
nothing and is bounded by the overhead-guard test in
``tests/telemetry``.  Enabled tracers export to:

* an in-memory tree (:attr:`Tracer.roots`, rendered by
  :meth:`Tracer.format_tree`), and
* JSONL trace files (:meth:`Tracer.write_jsonl`): a header line then
  one ``{"kind": "span", ...}`` record per finished span, the format
  ``scripts/trace_report.py`` consumes.

Zero dependencies (stdlib only).
"""

from __future__ import annotations

import json
import os
import time
from typing import IO

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "Tracer",
    "NullTracer",
    "NOOP_SPAN",
    "read_jsonl",
]

TRACE_SCHEMA = "repro.telemetry.trace/1"


class Span:
    """One timed region; also its own context manager."""

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "children",
        "start_s", "end_s", "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: int | None, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.children: list[Span] = []
        self.start_s = 0.0
        self.end_s: float | None = None

    # ------------------------------------------------------------------
    @property
    def duration_ms(self) -> float:
        end = self.end_s if self.end_s is not None else time.perf_counter()
        return (end - self.start_s) * 1e3

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes; chainable."""
        self.attrs.update(attrs)
        return self

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end_s = time.perf_counter()
        if exc_type is not None:
            # Tag, close, and *propagate*: tracing must never swallow.
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        return False

    def to_dict(self) -> dict:
        return {
            "kind": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": (self.start_s - self._tracer.epoch_s) * 1e3,
            "dur_ms": self.duration_ms,
            "attrs": self.attrs,
        }


class _NoopSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()
    attrs: dict = {}
    name = ""
    duration_ms = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class NullTracer:
    """Disabled tracer: every span() returns the one shared no-op span."""

    enabled = False
    roots: tuple = ()
    finished: tuple = ()
    dropped = 0

    def span(self, name: str, **attrs) -> _NoopSpan:
        return NOOP_SPAN

    def format_tree(self, *args, **kwargs) -> str:
        return "(tracing disabled)"

    def write_jsonl(self, path) -> None:
        raise RuntimeError("cannot export a NullTracer; tracing is disabled")


class Tracer:
    """Span recorder with an in-memory tree and JSONL export.

    ``max_spans`` bounds memory on very long runs: past the cap new
    spans are still timed-and-discarded no-ops and :attr:`dropped`
    counts them, so a runaway drive degrades gracefully instead of
    accumulating gigabytes of trace.
    """

    enabled = True

    def __init__(self, max_spans: int = 250_000) -> None:
        self.max_spans = int(max_spans)
        self.epoch_s = time.perf_counter()
        self.epoch_unix = time.time()
        self.roots: list[Span] = []
        self.finished: list[Span] = []  # completion order (JSONL order)
        self.dropped = 0
        self._stack: list[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NoopSpan:
        if len(self.finished) + len(self._stack) >= self.max_spans:
            self.dropped += 1
            return NOOP_SPAN
        span = Span(
            self, name, self._next_id,
            self._stack[-1].span_id if self._stack else None, attrs,
        )
        self._next_id += 1
        return span

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Exception unwinding may skip frames; pop to (and including)
        # this span so the stack never wedges on a crashed child.
        while self._stack:
            top = self._stack.pop()
            self.finished.append(top)
            if top is span:
                break

    # ------------------------------------------------------------------
    def span_durations(self) -> dict[str, list[float]]:
        """Finished-span durations (ms) grouped by span name."""
        grouped: dict[str, list[float]] = {}
        for span in self.finished:
            grouped.setdefault(span.name, []).append(span.duration_ms)
        return grouped

    def format_tree(self, max_children: int = 8, max_depth: int = 8) -> str:
        """Readable tree; sibling runs beyond ``max_children`` collapse.

        Hundreds of ``frame`` spans under one drive render as the first
        few plus one ``... (+N more, total X ms)`` line per name.
        """
        lines: list[str] = []

        def render(spans: list[Span], depth: int) -> None:
            if depth > max_depth:
                return
            indent = "  " * depth
            by_name: dict[str, int] = {}
            shown: dict[str, int] = {}
            for span in spans:
                by_name[span.name] = by_name.get(span.name, 0) + 1
            suppressed: dict[str, float] = {}
            for span in spans:
                n = shown.get(span.name, 0)
                if n >= max_children:
                    suppressed[span.name] = (
                        suppressed.get(span.name, 0.0) + span.duration_ms
                    )
                    continue
                shown[span.name] = n + 1
                attrs = ", ".join(
                    f"{k}={v}" for k, v in span.attrs.items()
                )
                lines.append(
                    f"{indent}{span.name}  {span.duration_ms:.3f} ms"
                    + (f"  [{attrs}]" if attrs else "")
                )
                render(span.children, depth + 1)
            for name, total in suppressed.items():
                more = by_name[name] - max_children
                lines.append(
                    f"{indent}... {name} (+{more} more, {total:.3f} ms)"
                )

        render(self.roots, 0)
        if self.dropped:
            lines.append(f"... ({self.dropped} spans dropped at cap)")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def write_jsonl(self, path) -> None:
        """Write header + one line per finished span (overwrites)."""
        with open(path, "w", encoding="utf-8") as handle:
            self.dump_jsonl(handle)

    def dump_jsonl(self, handle: IO[str]) -> None:
        header = {
            "kind": "header",
            "schema": TRACE_SCHEMA,
            "epoch_unix": self.epoch_unix,
            "pid": os.getpid(),
            "spans": len(self.finished),
            "dropped": self.dropped,
        }
        handle.write(json.dumps(header) + "\n")
        for span in self.finished:
            handle.write(json.dumps(span.to_dict()) + "\n")


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Parse one trace file; returns ``(header, span_records)``.

    Raises ``ValueError`` on a missing/foreign header so tooling fails
    loudly on files that merely look like traces.
    """
    header: dict | None = None
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") == "header":
                if record.get("schema") != TRACE_SCHEMA:
                    raise ValueError(
                        f"{path}: unsupported trace schema "
                        f"{record.get('schema')!r}"
                    )
                header = record
            elif record.get("kind") == "span":
                spans.append(record)
    if header is None:
        raise ValueError(f"{path}: no trace header found")
    return header, spans
