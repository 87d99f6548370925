"""Request/response surface of the drive service.

A :class:`DriveRequest` is declarative — scenario + policy by name (or
an explicit :class:`ScenarioSpec`), a seed and an optional timeline
scale — so requests are cheap to queue, log and replay.  Submission
returns a :class:`StreamHandle`, the future the caller waits on for the
finished :class:`~repro.simulation.DriveTrace`; the handle also carries
the caller-side controls: :meth:`StreamHandle.cancel` and the request's
``deadline_s``.

:class:`ServingConfig` holds the scheduler's trade-off knobs: execution
mode (cross-stream batched vs single-stream streaming), batch ceiling,
admission bounds, the shared-cache trim threshold, and the per-stream
:class:`StreamErrorPolicy` (retry budget, deterministic backoff,
quarantine threshold).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..resilience.monitor import HealthMonitorConfig
from ..simulation.scenario import ScenarioSpec

__all__ = [
    "CancelledError",
    "DeadlineExceeded",
    "DriveRequest",
    "ServingConfig",
    "ServiceSaturated",
    "StreamErrorPolicy",
    "StreamHandle",
]


class ServiceSaturated(RuntimeError):
    """Backpressure: the bounded admission queue is full."""


class CancelledError(RuntimeError):
    """The stream was cancelled via :meth:`StreamHandle.cancel`."""


class DeadlineExceeded(TimeoutError):
    """The stream's ``deadline_s`` elapsed before it finished."""


@dataclass(frozen=True)
class DriveRequest:
    """One drive stream to serve.

    ``scenario`` is a name from the scenario library or an explicit
    :class:`ScenarioSpec`; ``policy`` is a registry name (each stream
    gets its own policy instance — decision state is per-drive).
    ``scale`` shrinks/stretches the scenario timeline before serving
    (ignored when ``scenario`` is already a spec and equals 1.0).
    ``deadline_s`` is a wall-clock budget measured from submission: the
    scheduler evicts the stream between batch ticks once it elapses and
    the handle's :meth:`~StreamHandle.result` raises
    :class:`DeadlineExceeded`.  ``None`` (default) means no deadline.
    """

    scenario: str | ScenarioSpec
    policy: str
    seed: int = 0
    scale: float = 1.0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")


@dataclass(frozen=True)
class StreamErrorPolicy:
    """Per-stream failure handling: retries, backoff, quarantine.

    A stream whose frame step raises is rolled back to its last
    :class:`~repro.simulation.DriveCheckpoint` and re-enqueued after a
    deterministic backoff, up to ``max_retries`` times; one failure
    beyond that quarantines the stream — its handle fails with the
    original error and its admission slot is freed, so one poisoned
    stream never stalls the batch.

    Backoff is measured in *scheduler ticks*, not wall-clock, so retry
    schedules are deterministic under test: attempt ``k`` waits
    ``backoff_ticks * 2**(k-1)`` ticks plus a jitter drawn from
    ``default_rng((backoff_seed, stream_id, k))`` in
    ``[0, backoff_jitter]`` — seeded per (stream, attempt), so the same
    campaign replays the same schedule.

    ``checkpoint_every`` is the serving checkpoint cadence in frames
    (an initial checkpoint is always taken at admission, so a stream
    that fails on its first frame still restores cleanly).
    """

    max_retries: int = 2
    backoff_ticks: int = 1
    backoff_jitter: int = 2
    backoff_seed: int = 0
    checkpoint_every: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_ticks < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff_ticks/backoff_jitter must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def backoff_for(self, stream_id: int, attempt: int) -> int:
        """Ticks to wait before retry ``attempt`` (1-based) of a stream."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_ticks * (2 ** (attempt - 1))
        if self.backoff_jitter == 0:
            return base
        rng = np.random.default_rng(
            (self.backoff_seed, int(stream_id), int(attempt))
        )
        return base + int(rng.integers(0, self.backoff_jitter + 1))


@dataclass(frozen=True)
class ServingConfig:
    """Scheduler knobs: latency/throughput trade-off and admission bounds.

    * ``mode="batched"`` coalesces pending frames across streams into
      cross-drive batches (throughput); ``mode="streaming"`` serves
      every frame in a batch of one (the latency baseline — exactly
      what a deployed single stream would run).
    * ``max_batch`` caps cross-stream batch occupancy; larger batches
      amortize dispatch but each frame waits for the whole batch.
    * ``max_active_streams`` bounds resident per-stream state;
      ``queue_capacity`` bounds admitted-but-not-started requests —
      beyond it, ``submit`` raises :class:`ServiceSaturated`.
    * ``compiled`` replays inference through ``repro.nn.engine``
      programs (trace-once, LRU-shared across all streams).
    * ``health`` arms a custom health-monitor config on every stream
      (sharded per stream, like offline drives).
    * ``max_cache_entries`` trims the shared branch-output cache when it
      grows past this many memoized outputs (0 disables trimming).
    * ``dedupe_sources`` shares one rendered frame sequence between
      co-admitted streams requesting the same (scenario, seed, scale) —
      the policy-A/B fleet case, where five policies replay one drive.
      Frames are a pure function of (scenario, seed), so sharing moves
      wall-clock, never bits; streams admitted after a source has
      started get their own private source.
    * ``errors`` is the per-stream retry/quarantine policy (``None``
      uses the :class:`StreamErrorPolicy` defaults).
    """

    mode: str = "batched"
    max_batch: int = 16
    max_active_streams: int = 64
    queue_capacity: int = 128
    compiled: bool = True
    health: HealthMonitorConfig | None = None
    max_cache_entries: int = 200_000
    dedupe_sources: bool = True
    errors: StreamErrorPolicy | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("batched", "streaming"):
            raise ValueError(f"unknown serving mode: {self.mode!r}")
        if self.max_batch < 1 or self.max_active_streams < 1:
            raise ValueError("max_batch and max_active_streams must be >= 1")
        if self.queue_capacity < 0 or self.max_cache_entries < 0:
            raise ValueError("queue_capacity/max_cache_entries must be >= 0")

    @property
    def error_policy(self) -> StreamErrorPolicy:
        return self.errors if self.errors is not None else StreamErrorPolicy()


@dataclass
class StreamHandle:
    """Future for one submitted drive stream."""

    request: DriveRequest
    stream_id: int
    status: str = "queued"  # queued -> active -> done | failed | cancelled
    _event: threading.Event = field(default_factory=threading.Event, repr=False)
    _trace: object = field(default=None, repr=False)
    _error: BaseException | None = field(default=None, repr=False)
    # Caller-side cancellation flag + the scheduler's wakeup hook; the
    # scheduler acts on the flag between batch ticks.
    _cancel_requested: bool = field(default=False, repr=False)
    _service: object = field(default=None, repr=False)
    # Submission wall-clock and the absolute deadline derived from the
    # request's deadline_s (both set by DriveService.submit).
    _submitted_at: float | None = field(default=None, repr=False)
    _deadline_at: float | None = field(default=None, repr=False)

    def done(self) -> bool:
        """True once a trace (or an error) is available."""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """The finished :class:`DriveTrace` (blocks until available).

        A ``timeout`` here only bounds *this wait* — the stream keeps
        running (and keeps holding its admission slot) after the
        :class:`TimeoutError`.  To give up on the stream itself, call
        :meth:`cancel`, which frees the slot at the next scheduler tick:

        >>> try:
        ...     trace = handle.result(timeout=2.0)
        ... except TimeoutError:
        ...     handle.cancel()   # actually releases the stream

        For a budget the *service* enforces without caller involvement,
        submit with ``DriveRequest(..., deadline_s=...)`` instead.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"stream {self.stream_id} not finished within {timeout}s; "
                "the stream is still running — call handle.cancel() to "
                "release it"
            )
        if self._error is not None:
            raise self._error
        return self._trace

    def cancel(self) -> bool:
        """Request cancellation; returns False if already finished.

        Asynchronous: the scheduler evicts the stream between batch
        ticks, after which :meth:`result` raises :class:`CancelledError`
        and the admission slot is free.  Cancelling a queued (not yet
        admitted) stream never runs a single frame of it.
        """
        if self.done():
            return False
        self._cancel_requested = True
        service = self._service
        if service is not None:
            service._wake()
        return True

    def cancelled(self) -> bool:
        return isinstance(self._error, CancelledError)

    # -- scheduler side -------------------------------------------------
    def _finish(self, trace) -> None:
        self._trace = trace
        self.status = "done"
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.status = (
            "cancelled" if isinstance(error, CancelledError) else "failed"
        )
        self._event.set()
