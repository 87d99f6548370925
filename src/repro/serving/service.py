"""The warm-pool drive service: many concurrent streams, one scheduler.

:class:`DriveService` keeps a trained system *resident* — workers hold
:class:`~repro.simulation.ClosedLoopRunner` instances plus one shared
branch-output cache, and compiled ``repro.nn.engine`` programs live in
the process-wide LRU — so serving N drives never re-pays model load or
trace-compile cost per request (the CARMA amortization argument applied
fleet-wide).

Scheduling model
----------------
One scheduler thread owns all inference.  This is load-bearing, not a
simplification: compiled programs replay on the engine's process-global
bump pool, whose buffers are invalidated by the next replay of *any*
program — concurrent replays would corrupt each other.  Concurrency
therefore comes from **cross-stream batching**, not threads: each tick
the scheduler coalesces one pending frame from up to ``max_batch``
ready streams into a single ``ClosedLoopRunner.serve_batch`` call, so
stems, gate trunks and branch trunks run over cross-drive batches.
Because every batched stage is batch-invariant, each served stream's
trace is bit-identical to running it alone offline — batching changes
wall-clock, never bits.

``mode="streaming"`` instead serves each stream's frame in a batch of
one — the per-frame latency baseline of a deployed single stream.

Work dedup is the other throughput lever: all workers share one
branch-output cache (cached == fresh, bit for bit), and with
``dedupe_sources`` on, streams admitted together that request the same
(scenario, seed, scale) share one rendered frame sequence — the fleet
policy-sweep case pays for each drive's rendering once instead of once
per policy.

Execution-fault tolerance
-------------------------
Between batch ticks the scheduler runs a control sweep: cancelled
streams (:meth:`StreamHandle.cancel`) and streams past their request
deadline are evicted — their handles fail with ``CancelledError`` /
``DeadlineExceeded`` and their admission slots free immediately.  A
stream whose frame step *raises* is rolled back to its last
:class:`~repro.simulation.DriveCheckpoint` (taken at admission and every
``errors.checkpoint_every`` frames) and retried after a deterministic
tick-denominated backoff; because frames are a pure function of
(scenario, seed) and checkpoint restore is bit-exact, a retried stream's
trace is indistinguishable from an untroubled run.  When a *batched*
step fails, every batch member restores from its checkpoint (uncharged)
and re-executes solo until past the failure point, so the culprit is
identified and charged without poisoning innocents; a stream exhausting
``errors.max_retries`` is quarantined — its handle surfaces the original
error and the batch moves on.

The service can run inline (``serve`` drives the scheduler on the
calling thread — deterministic, test-friendly) or as a background
worker (``start``/``submit``/``stop``), with bounded admission either
way: past ``queue_capacity`` pending requests, ``submit`` raises
:class:`ServiceSaturated`.  A fully idle background scheduler blocks on
its condition variable (no periodic wakeups) until a submit, cancel or
stop signals it.

All measurement goes through ``repro.telemetry``: per-frame service
latency and batch occupancy land in mergeable histograms, failure
handling lands in ``serving.stream.{cancelled,deadline_missed,retried,
quarantined}`` counters and ``serve.fault`` spans, and
``scripts/trace_report.py --serving/--failures`` renders both.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import nullcontext
from time import perf_counter

from ..core.ecofusion import BranchOutputCache
from ..nn import engine
from ..policies.registry import build_policy
from ..simulation import ClosedLoopRunner, get_scenario, scaled
from ..simulation.drive import DriveSource
from ..simulation.scenario import ScenarioSpec
from ..telemetry import Telemetry, get_default
from ..telemetry.metrics import OCCUPANCY_BUCKETS, SERVING_LATENCY_BUCKETS_MS
from .request import (
    CancelledError,
    DeadlineExceeded,
    DriveRequest,
    ServiceSaturated,
    ServingConfig,
    StreamHandle,
)

__all__ = ["DriveService"]


class _SharedSource:
    """One rendered frame sequence fanned out to several streams.

    Streams requesting the same (scenario, seed, scale) see identical
    frames — frames are a pure function of those inputs — so the
    service renders each frame once and hands it to every consumer.
    A small buffer covers the cursor spread between consumers (the
    round-robin scheduler keeps them within a frame or two of each
    other); frames every consumer has passed are evicted immediately.
    """

    __slots__ = ("iterator", "buffer", "offset", "cursors", "next_id",
                 "pulled")

    def __init__(self, iterator) -> None:
        self.iterator = iterator
        self.buffer: list = []  # frames [offset, offset + len)
        self.offset = 0
        self.cursors: dict[int, int] = {}
        self.next_id = 0
        self.pulled = False

    def register(self) -> int:
        """Add a consumer at frame 0; only legal before the first pull."""
        assert not self.pulled, "cannot join a started source"
        cid = self.next_id
        self.next_id += 1
        self.cursors[cid] = 0
        return cid

    def pull(self, cid: int):
        """Next frame for consumer ``cid`` (None once exhausted)."""
        self.pulled = True
        index = self.cursors[cid]
        while index - self.offset >= len(self.buffer):
            frame = next(self.iterator, None)
            if frame is None:
                return None
            self.buffer.append(frame)
        frame = self.buffer[index - self.offset]
        self.cursors[cid] = index + 1
        self._evict()
        return frame

    def release(self, cid: int) -> None:
        self.cursors.pop(cid, None)
        self._evict()

    def _evict(self) -> None:
        if not self.cursors:
            self.buffer.clear()
            return
        low = min(self.cursors.values())
        if low > self.offset:
            del self.buffer[: low - self.offset]
            self.offset = low


def _consume(source: _SharedSource, cid: int):
    """Per-consumer iterator over a shared source."""
    while True:
        frame = source.pull(cid)
        if frame is None:
            source.release(cid)
            return
        yield frame


class _Stream:
    """Resident state of one active drive stream."""

    __slots__ = ("handle", "spec", "policy", "state", "initial_soc",
                 "frames", "next_frame", "frames_done", "ready_at",
                 "checkpoint", "attempts", "blocked_until", "solo_until",
                 "source", "cid")

    def __init__(self, handle: StreamHandle, spec, policy, state,
                 frames, source: _SharedSource | None = None,
                 cid: int = -1) -> None:
        self.handle = handle
        self.spec = spec
        self.policy = policy
        self.state = state
        self.initial_soc = state.battery.soc
        self.frames = frames
        self.source = source
        self.cid = cid
        self.next_frame = next(frames, None)
        self.frames_done = 0
        self.ready_at = perf_counter()
        self.checkpoint = None  # last DriveCheckpoint (retry restore point)
        self.attempts = 0  # failures charged to this stream so far
        self.blocked_until = 0  # scheduler tick the backoff expires at
        # Failure triage: run in batches of one while frames_done <=
        # solo_until, i.e. until past the frame a failed step was
        # executing — so a deterministic fault re-fires *solo* and gets
        # charged to its stream instead of re-poisoning mixed batches.
        self.solo_until = -1


class _Worker:
    """One resident runner plus the streams currently pinned to it.

    Workers shard *streams*; batches never mix workers.  They all share
    the branch-output cache and the process-wide program LRU, so a
    single-worker pool already is the fully warm configuration — extra
    workers exist to bound per-runner memo growth, not for threads.
    """

    __slots__ = ("runner", "streams", "cursor")

    def __init__(self, runner: ClosedLoopRunner) -> None:
        self.runner = runner
        self.streams: list[_Stream] = []
        self.cursor = 0

    def take_batch(self, max_batch: int, tick: int = 0) -> list[_Stream]:
        """Up to ``max_batch`` ready streams, round-robin fair.

        Streams in retry backoff (``blocked_until`` in the future) are
        skipped; streams in solo triage after a batch failure are served
        one at a time, ahead of re-forming mixed batches.
        """
        ready = [
            s for s in self.streams
            if s.next_frame is not None and s.blocked_until <= tick
        ]
        solo = [s for s in ready if s.frames_done <= s.solo_until]
        if solo:
            return [solo[0]]
        if len(ready) <= max_batch:
            return ready
        start = self.cursor % len(ready)
        self.cursor += max_batch
        return (ready[start:] + ready[:start])[:max_batch]


class DriveService:
    """Serve concurrent drive streams from a warm, resident system.

    ``fault_injector`` is the chaos seam used by
    ``repro.resilience.fuzz --service``: a callable
    ``(stream_id, frame_index)`` invoked before each frame step; raising
    from it kills that step exactly as a real mid-flight execution fault
    would, exercising the checkpoint-restore/retry/quarantine machinery.
    """

    def __init__(
        self,
        system,
        config: ServingConfig | None = None,
        telemetry: Telemetry | None = None,
        workers: int = 1,
        fault_injector=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.system = system
        self.config = config or ServingConfig()
        self.telemetry = telemetry if telemetry is not None else get_default()
        self.fault_injector = fault_injector
        # One shared cache: keys are globally-unique sample uids and
        # cached == fresh bit for bit, so cross-stream sharing is safe.
        self.cache = BranchOutputCache()
        self._workers = [
            _Worker(ClosedLoopRunner(
                system.model,
                cache=self.cache,
                telemetry=self.telemetry,
                health=self.config.health,
            ))
            for _ in range(workers)
        ]
        self._lock = threading.Condition()
        self._queued: deque[StreamHandle] = deque()
        self._next_id = 0
        self._completed = 0
        self._rejected = 0
        self._frames = 0
        self._cancelled = 0
        self._deadline_missed = 0
        self._retried = 0
        self._quarantined = 0
        self._ticks = 0
        self._thread: threading.Thread | None = None
        self._sources: dict[tuple, _SharedSource] = {}
        self._stopping = False

    # ------------------------------------------------------------------
    # Submission / backpressure
    # ------------------------------------------------------------------
    def submit(self, request: DriveRequest, block: bool = False,
               timeout: float | None = None) -> StreamHandle:
        """Queue one drive stream; returns its handle.

        Raises :class:`ServiceSaturated` when the admission queue is
        full (with ``block=True``, waits up to ``timeout`` for space
        instead).
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError("service is stopped")
            if len(self._queued) >= self.config.queue_capacity:
                if not block or not self._lock.wait_for(
                    lambda: len(self._queued) < self.config.queue_capacity
                    or self._stopping,
                    timeout=timeout,
                ) or self._stopping:
                    self._rejected += 1
                    if self.telemetry.metrics.enabled:
                        self.telemetry.metrics.counter("serving.rejected").inc()
                    raise ServiceSaturated(
                        f"admission queue full "
                        f"({self.config.queue_capacity} pending)"
                    )
            handle = StreamHandle(request=request, stream_id=self._next_id)
            now = perf_counter()
            handle._submitted_at = now
            if request.deadline_s is not None:
                handle._deadline_at = now + request.deadline_s
            handle._service = self
            self._next_id += 1
            self._queued.append(handle)
            self._lock.notify_all()
        return handle

    def serve(self, requests: list[DriveRequest], block: bool = True):
        """Submit many streams and wait; traces in request order.

        Without a background worker this drives the scheduler inline on
        the calling thread.  ``block=True`` applies backpressure instead
        of failing when the queue is momentarily full.
        """
        handles = []
        for request in requests:
            if self._thread is None:
                # Inline mode: drain the scheduler until there is room.
                while True:
                    try:
                        handles.append(self.submit(request, block=False))
                        break
                    except ServiceSaturated:
                        if not block or not self._tick():
                            raise
            else:
                handles.append(self.submit(request, block=block,
                                           timeout=None))
        if self._thread is None:
            while not all(h.done() for h in handles):
                did_work = self._tick()
                # An idle tick with streams still resident is normal
                # under retry backoff (ticks are the backoff clock);
                # only a truly empty scheduler is a wedged one.
                if not did_work and not self._has_pending_work():
                    break
        return [h.result() for h in handles]

    def _has_pending_work(self) -> bool:
        with self._lock:
            return bool(self._queued) or any(
                w.streams for w in self._workers
            )

    def _wake(self) -> None:
        """Nudge the scheduler (cancel requests, external signals)."""
        with self._lock:
            self._lock.notify_all()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "DriveService":
        """Run the scheduler on a background thread."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._loop, name="drive-serving", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the background scheduler (draining in-flight work)."""
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self._stopping = True
            if not drain:
                for handle in self._queued:
                    handle._fail(RuntimeError("service stopped"))
                self._queued.clear()
            self._lock.notify_all()
        thread.join()
        self._thread = None
        self._stopping = False

    def __enter__(self) -> "DriveService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def stats(self) -> dict:
        """Pool/queue occupancy and lifetime counters."""
        with self._lock:
            active = sum(len(w.streams) for w in self._workers)
            return {
                "workers": len(self._workers),
                "active_streams": active,
                "queued": len(self._queued),
                "completed": self._completed,
                "rejected": self._rejected,
                "frames": self._frames,
                "cancelled": self._cancelled,
                "deadline_missed": self._deadline_missed,
                "retried": self._retried,
                "quarantined": self._quarantined,
                "ticks": self._ticks,
                "cache_entries": self.cache.total_entries(),
                "engine": engine.engine_stats(),
            }

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            did_work = self._tick()
            with self._lock:
                if self._stopping and not self._queued and not any(
                    w.streams for w in self._workers
                ):
                    return
                if did_work or self._stopping:
                    continue
                if not self._queued and not any(
                    w.streams for w in self._workers
                ):
                    # Fully idle: nothing can expire or unblock on its
                    # own, so sleep until submit/cancel/stop signals —
                    # an idle service costs zero wakeups.
                    self._lock.wait()
                else:
                    # Streams resident but none ready (retry backoff,
                    # deadline pressure): keep the tick clock running.
                    self._lock.wait(timeout=0.005)

    def _tick(self) -> bool:
        """One scheduler turn: control sweep, admit, one batch per worker.

        Also the retry clock — backoff is measured in ticks, so every
        call advances ``_ticks`` whether or not work was found.
        """
        self._ticks += 1
        self._sweep_control()
        self._admit()
        did_work = False
        for worker in self._workers:
            batch = worker.take_batch(self.config.max_batch, self._ticks)
            if not batch:
                continue
            self._run_batch(worker, batch)
            did_work = True
        return did_work

    # ------------------------------------------------------------------
    # Control sweep: cancellation + deadlines
    # ------------------------------------------------------------------
    def _control_error(self, handle: StreamHandle,
                       now: float) -> BaseException | None:
        if handle._cancel_requested:
            return CancelledError(f"stream {handle.stream_id} cancelled")
        if handle._deadline_at is not None and now >= handle._deadline_at:
            return DeadlineExceeded(
                f"stream {handle.stream_id} missed its "
                f"{handle.request.deadline_s}s deadline"
            )
        return None

    def _sweep_control(self) -> None:
        """Evict cancelled/expired streams, queued and active alike."""
        now = perf_counter()
        with self._lock:
            expired_queued = []
            for handle in self._queued:
                error = self._control_error(handle, now)
                if error is not None:
                    expired_queued.append((handle, error))
            for handle, _ in expired_queued:
                self._queued.remove(handle)
        for handle, error in expired_queued:
            handle._fail(error)
            self._count_control(handle, error)
        for worker in self._workers:
            for stream in list(worker.streams):
                error = self._control_error(stream.handle, now)
                if error is not None:
                    self._drop_stream(worker, stream, error)

    def _count_control(self, handle: StreamHandle,
                       error: BaseException) -> None:
        kind = ("cancelled" if isinstance(error, CancelledError)
                else "deadline_missed")
        if kind == "cancelled":
            self._cancelled += 1
        else:
            self._deadline_missed += 1
        self._fault_signal(handle, kind)

    def _fault_signal(self, handle: StreamHandle, kind: str,
                      attempt: int = 0, backoff_ticks: int = 0) -> None:
        """One failure-handling event: counter + ``serve.fault`` span."""
        if self.telemetry.metrics.enabled:
            self.telemetry.metrics.counter(f"serving.stream.{kind}").inc()
        tracer = self.telemetry.tracer
        if tracer.enabled:
            latency_ms = (
                (perf_counter() - handle._submitted_at) * 1000.0
                if handle._submitted_at is not None else 0.0
            )
            with tracer.span(
                "serve.fault", stream=handle.stream_id, kind=kind,
                attempt=attempt, backoff_ticks=backoff_ticks,
                latency_ms=latency_ms,
            ):
                pass

    def _drop_stream(self, worker: _Worker, stream: _Stream,
                     error: BaseException) -> None:
        """Evict an active stream (cancel/deadline): slot frees now."""
        stream.handle._fail(error)
        if stream.source is not None:
            stream.source.release(stream.cid)
            stream.source = None
        worker.streams.remove(stream)
        self._prune_sources()
        with self._lock:
            self._completed += 1
            self._lock.notify_all()
        self._count_control(stream.handle, error)

    def _admit(self) -> None:
        admitted: list[StreamHandle] = []
        with self._lock:
            active = sum(len(w.streams) for w in self._workers)
            while (self._queued and active + len(admitted)
                    < self.config.max_active_streams):
                admitted.append(self._queued.popleft())
            if admitted:
                self._lock.notify_all()  # queue space freed
        if not admitted:
            return
        # Two phases so duplicate requests admitted together share one
        # frame source: every consumer must register *before* any stream
        # pulls frame 0 (constructing a _Stream pulls).
        resolved = []
        for handle in admitted:
            try:
                resolved.append((handle, self._resolve(handle.request)))
            except Exception as error:  # bad scenario/policy name etc.
                handle._fail(error)
        for handle, (spec, policy, frames, source, cid) in resolved:
            worker = self._workers[handle.stream_id % len(self._workers)]
            try:
                state = worker.runner.open_drive(policy)
                stream = _Stream(handle, spec, policy, state, frames,
                                 source, cid)
                # Admission checkpoint: a stream that fails on its very
                # first frame still has a restore point (frame 0, fresh
                # state; restore fast-forwards, so shared sources and
                # the prefetched next_frame need no special casing).
                stream.checkpoint = worker.runner.checkpoint_drive(
                    spec, policy, state,
                    seed=handle.request.seed,
                    initial_soc=stream.initial_soc,
                    frame_index=0, cursor=None,
                )
            except Exception as error:
                if source is not None:
                    source.release(cid)  # don't pin the source's buffer
                handle._fail(error)
                continue
            worker.streams.append(stream)
            handle.status = "active"
            if stream.next_frame is None:  # zero-frame scenario
                self._finish_stream(worker, stream)

    def _resolve(self, request: DriveRequest):
        """Spec, policy and frame source for one request (admit phase 1).

        With ``dedupe_sources`` on, requests for the same
        (scenario, seed, scale) that are admitted together get cursors
        into one :class:`_SharedSource` — the fleet policy-sweep case,
        where several policies replay one drive and rendering it once
        is most of the win.  A request arriving after the source has
        started rendering gets a fresh source (joining mid-drive would
        mean buffering every frame since 0).
        """
        scenario = request.scenario
        spec = scenario
        if not isinstance(spec, ScenarioSpec):
            spec = get_scenario(spec)
        if request.scale != 1.0:
            spec = scaled(spec, request.scale)
        policy = build_policy(request.policy, self.system)
        if not self.config.dedupe_sources:
            frames = iter(DriveSource(
                spec, seed=request.seed,
                image_size=self.system.model.image_size,
            ))
            return spec, policy, frames, None, -1
        key = (scenario if isinstance(scenario, str) else id(scenario),
               request.seed, request.scale)
        source = self._sources.get(key)
        if source is None or source.pulled:
            source = _SharedSource(iter(DriveSource(
                spec, seed=request.seed,
                image_size=self.system.model.image_size,
            )))
            self._sources[key] = source
        cid = source.register()
        return spec, policy, _consume(source, cid), source, cid

    def _run_batch(self, worker: _Worker, batch: list[_Stream]) -> None:
        config = self.config
        tracer = self.telemetry.tracer
        metrics = (self.telemetry.metrics
                   if self.telemetry.metrics.enabled else None)
        frames = [s.next_frame for s in batch]
        failed: set[int] = set()
        compile_ctx = engine.use_compiled() if config.compiled else nullcontext()
        with tracer.span("serve.batch", occupancy=len(batch),
                         mode=config.mode):
            with compile_ctx:
                if config.mode == "streaming":
                    for stream, frame in zip(batch, frames):
                        try:
                            self._inject(stream, frame)
                            worker.runner.serve_batch([(
                                frame, stream.spec, stream.policy,
                                stream.state,
                            )])
                        except Exception as error:
                            self._handle_stream_failure(worker, stream,
                                                        error)
                            failed.add(id(stream))
                else:
                    try:
                        for stream, frame in zip(batch, frames):
                            self._inject(stream, frame)
                        worker.runner.serve_batch([
                            (frame, s.spec, s.policy, s.state)
                            for s, frame in zip(batch, frames)
                        ])
                    except Exception as error:
                        self._handle_batch_failure(worker, batch, error)
                        return
        finished = perf_counter()
        served = len(batch) - len(failed)
        if metrics is not None and served:
            metrics.histogram(
                "serving.batch.occupancy", buckets=OCCUPANCY_BUCKETS,
                mode=config.mode,
            ).observe(float(served))
            metrics.counter("serving.batches", mode=config.mode).inc()
            metrics.counter("serving.frames", mode=config.mode).inc(served)
        latency_hist = None if metrics is None else metrics.histogram(
            "serving.frame.latency_ms", buckets=SERVING_LATENCY_BUCKETS_MS,
            mode=config.mode,
        )
        errors = config.error_policy
        for stream, frame in zip(batch, frames):
            if id(stream) in failed:
                continue
            # Service latency: from the frame becoming ready (previous
            # batch completion / admission) to batch completion — under
            # load this includes the wait for a scheduling slot.
            latency_ms = (finished - stream.ready_at) * 1000.0
            if latency_hist is not None:
                latency_hist.observe(latency_ms)
            if tracer.enabled:
                with tracer.span(
                    "serve.frame", stream=stream.handle.stream_id,
                    t=frame.time_index, latency_ms=latency_ms,
                    occupancy=len(batch),
                ):
                    pass
            stream.frames_done += 1
            self._frames += 1
            if stream.frames_done % errors.checkpoint_every == 0:
                stream.checkpoint = worker.runner.checkpoint_drive(
                    stream.spec, stream.policy, stream.state,
                    seed=stream.handle.request.seed,
                    initial_soc=stream.initial_soc,
                    frame_index=stream.frames_done, cursor=None,
                )
            try:
                stream.next_frame = next(stream.frames, None)
            except Exception as error:  # frame source failed mid-drive
                self._handle_stream_failure(worker, stream, error)
                continue
            stream.ready_at = perf_counter()
            if stream.next_frame is None:
                self._finish_stream(worker, stream)
        self.cache.trim(config.max_cache_entries)

    def _inject(self, stream: _Stream, frame) -> None:
        if self.fault_injector is not None:
            self.fault_injector(stream.handle.stream_id, frame.time_index)

    # ------------------------------------------------------------------
    # Failure handling: checkpoint restore, retry backoff, quarantine
    # ------------------------------------------------------------------
    def _handle_batch_failure(self, worker: _Worker, batch: list[_Stream],
                              error: BaseException) -> None:
        """A batched step raised: restore everyone, re-run solo.

        ``serve_batch`` may have part-mutated several streams' states
        before raising, and the raiser is not identifiable from outside,
        so every member rolls back to its checkpoint (uncharged — the
        restore is bit-exact, so innocents lose nothing but wall-clock)
        and re-executes in batches of one; the culprit then fails alone
        and is charged by :meth:`_handle_stream_failure`.
        """
        if len(batch) == 1:
            self._handle_stream_failure(worker, batch[0], error)
            return
        for stream in batch:
            in_flight = stream.frames_done  # frame executing at failure
            self._restore_stream(worker, stream)
            stream.solo_until = in_flight

    def _handle_stream_failure(self, worker: _Worker, stream: _Stream,
                               error: BaseException) -> None:
        """One stream's step (or ingest) raised: retry or quarantine."""
        errors = self.config.error_policy
        stream.attempts += 1
        if stream.attempts > errors.max_retries:
            self._quarantine(worker, stream, error)
            return
        in_flight = stream.frames_done  # frame executing at failure
        self._restore_stream(worker, stream)
        stream.solo_until = in_flight  # retry alone past the fault point
        backoff = errors.backoff_for(stream.handle.stream_id,
                                     stream.attempts)
        stream.blocked_until = self._ticks + backoff
        self._retried += 1
        self._fault_signal(stream.handle, "retried",
                           attempt=stream.attempts, backoff_ticks=backoff)

    def _restore_stream(self, worker: _Worker, stream: _Stream) -> None:
        """Roll a stream back to its last checkpoint (bit-exact).

        The retried stream always gets a *private* frame cursor — its
        shared-source cursor (if any) is released, since the surviving
        co-consumers have moved on and a shared source cannot rewind.
        """
        checkpoint = stream.checkpoint
        runner = worker.runner
        stream.state = runner.restore_drive(stream.spec, stream.policy,
                                            checkpoint)
        if stream.source is not None:
            stream.source.release(stream.cid)
            stream.source = None
            stream.cid = -1
            self._prune_sources()
        source = DriveSource(
            stream.spec, seed=stream.handle.request.seed,
            image_size=self.system.model.image_size,
        )
        cursor = runner.resume_cursor(source, checkpoint)
        stream.frames = cursor
        stream.next_frame = next(cursor, None)
        stream.frames_done = checkpoint.frame_index
        stream.ready_at = perf_counter()

    def _quarantine(self, worker: _Worker, stream: _Stream,
                    error: BaseException) -> None:
        """Retries exhausted: surface the error, free the slot."""
        stream.handle._fail(error)
        if stream.source is not None:
            stream.source.release(stream.cid)
            stream.source = None
        worker.streams.remove(stream)
        self._prune_sources()
        self._quarantined += 1
        self._fault_signal(stream.handle, "quarantined",
                           attempt=stream.attempts)
        with self._lock:
            self._completed += 1
            self._lock.notify_all()

    def _prune_sources(self) -> None:
        for key in [k for k, s in self._sources.items() if not s.cursors]:
            del self._sources[key]  # drained: same key may be re-requested

    def _finish_stream(self, worker: _Worker, stream: _Stream) -> None:
        try:
            trace = worker.runner.close_drive(
                stream.spec, stream.policy, stream.state, stream.initial_soc
            )
        except Exception as error:
            stream.handle._fail(error)
        else:
            stream.handle._finish(trace)
        worker.streams.remove(stream)
        self._prune_sources()
        with self._lock:
            self._completed += 1
            self._lock.notify_all()
