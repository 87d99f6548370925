"""Execution-fault tolerance: deadlines, cancellation, retry, quarantine.

Bit-identity of fault-free served streams lives in
``test_serving_equivalence.py``; this file covers what happens when
execution *goes wrong*: caller cancellation and request deadlines
(slot freed, typed error surfaced), checkpoint-restore retries
(recovered streams still bit-identical), quarantine after the retry
budget, the documented ``result(timeout=...)`` recovery path, and the
idle scheduler staying CPU-quiet (condition signaling, not polling).
"""

from __future__ import annotations

import time

import pytest

from repro.policies import get_policy_spec
from repro.serving import (
    CancelledError,
    DeadlineExceeded,
    DriveRequest,
    DriveService,
    ServingConfig,
    StreamErrorPolicy,
)
from repro.simulation import ClosedLoopRunner, get_scenario, scaled

SCALE = 0.1
ERRORS = StreamErrorPolicy(max_retries=2, backoff_ticks=1, backoff_jitter=0,
                           checkpoint_every=4)


def request(policy="static_early", scenario="highway_commute", seed=0,
            deadline_s=None):
    return DriveRequest(scenario, policy, seed=seed, scale=SCALE,
                        deadline_s=deadline_s)


def drain(service, handles, max_ticks=5000):
    ticks = 0
    while service._has_pending_work():
        ticks += 1
        assert ticks < max_ticks, "scheduler wedged"
        service._tick()
    return handles


class TestErrorPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_retries": -1},
        {"backoff_ticks": -1},
        {"backoff_jitter": -1},
        {"checkpoint_every": 0},
    ])
    def test_rejects_bad_bounds(self, kwargs):
        with pytest.raises(ValueError):
            StreamErrorPolicy(**kwargs)

    def test_backoff_is_deterministic_and_exponential(self):
        policy = StreamErrorPolicy(backoff_ticks=2, backoff_jitter=3,
                                   backoff_seed=9)
        first = [policy.backoff_for(5, k) for k in (1, 2, 3)]
        assert first == [policy.backoff_for(5, k) for k in (1, 2, 3)]
        base = StreamErrorPolicy(backoff_ticks=2, backoff_jitter=0)
        assert [base.backoff_for(5, k) for k in (1, 2, 3)] == [2, 4, 8]

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_s"):
            DriveRequest("highway_commute", "static_early", deadline_s=0.0)


class TestCancellation:
    def test_cancel_active_stream_frees_the_slot(self, tiny_system):
        service = DriveService(tiny_system, ServingConfig(compiled=False))
        victim = service.submit(request(seed=0))
        survivor = service.submit(request(seed=1))
        service._tick()  # admit + first frames
        assert victim.cancel() is True
        drain(service, [victim, survivor])
        assert victim.cancelled() and victim.status == "cancelled"
        with pytest.raises(CancelledError):
            victim.result(timeout=0.0)
        assert survivor.result().records  # unaffected neighbor
        stats = service.stats()
        assert stats["cancelled"] == 1
        assert stats["active_streams"] == 0

    def test_cancel_queued_stream_never_runs(self, tiny_system):
        service = DriveService(
            tiny_system,
            ServingConfig(compiled=False, max_active_streams=1),
        )
        active = service.submit(request(seed=0))
        queued = service.submit(request(seed=1))
        assert queued.cancel() is True
        drain(service, [active, queued])
        assert queued.cancelled()
        assert active.result().records

    def test_cancel_after_done_returns_false(self, tiny_system):
        service = DriveService(tiny_system, ServingConfig(compiled=False))
        handle = service.submit(request())
        drain(service, [handle])
        assert handle.cancel() is False
        assert handle.result().records

    def test_result_timeout_documents_cancel_recovery(self, tiny_system):
        # The satellite fix for the handle leak: a result() timeout
        # tells the caller the stream still holds its slot and points
        # at cancel(), which actually releases it.
        service = DriveService(tiny_system, ServingConfig(compiled=False))
        handle = service.submit(request())
        with pytest.raises(TimeoutError, match="handle.cancel()"):
            handle.result(timeout=0.0)
        assert handle.cancel() is True
        drain(service, [handle])
        assert service.stats()["active_streams"] == 0


class TestDeadlines:
    def test_expired_deadline_surfaces_typed_error(self, tiny_system):
        service = DriveService(tiny_system, ServingConfig(compiled=False))
        doomed = service.submit(request(seed=0, deadline_s=0.005))
        safe = service.submit(request(seed=1))
        time.sleep(0.02)  # let the deadline lapse before the next tick
        drain(service, [doomed, safe])
        with pytest.raises(DeadlineExceeded, match="deadline"):
            doomed.result(timeout=0.0)
        assert doomed.status == "failed" and not doomed.cancelled()
        assert safe.result().records
        assert service.stats()["deadline_missed"] == 1

    def test_generous_deadline_does_not_fire(self, tiny_system):
        service = DriveService(tiny_system, ServingConfig(compiled=False))
        handle = service.submit(request(deadline_s=300.0))
        drain(service, [handle])
        assert handle.result().records
        assert service.stats()["deadline_missed"] == 0


class TestRetryAndQuarantine:
    def _kill_injector(self, frame, budgets):
        fired: dict[int, int] = {}

        def injector(stream_id, time_index):
            if time_index != frame or stream_id not in budgets:
                return
            budget = budgets[stream_id]
            if budget is None or fired.get(stream_id, 0) < budget:
                fired[stream_id] = fired.get(stream_id, 0) + 1
                raise RuntimeError(
                    f"injected kill: stream {stream_id} frame {time_index}"
                )

        return injector

    def test_killed_stream_retries_to_bit_identical_trace(self, tiny_system):
        # Kill stream 0 twice at frame 6: the first (batched) failure
        # restores every batch member uncharged, the solo re-run charges
        # the retry, the third run passes — and the recovered trace must
        # carry exactly the bits of an untroubled offline drive.
        config = ServingConfig(mode="batched", max_batch=4, compiled=False,
                               errors=ERRORS)
        service = DriveService(
            tiny_system, config,
            fault_injector=self._kill_injector(6, {0: 2}),
        )
        handles = [service.submit(request(seed=s)) for s in range(3)]
        drain(service, handles)
        stats = service.stats()
        assert stats["retried"] >= 1
        assert stats["quarantined"] == 0
        spec = scaled(get_scenario("highway_commute"), SCALE)
        runner = ClosedLoopRunner(tiny_system.model)
        for seed, handle in enumerate(handles):
            reference = runner.run(
                spec, get_policy_spec("static_early").build(tiny_system),
                seed=seed, window=1,
            )
            assert handle.result().records_hex() == reference.records_hex()

    def test_poisoned_stream_is_quarantined_with_error_surfaced(
        self, tiny_system
    ):
        config = ServingConfig(mode="batched", max_batch=4, compiled=False,
                               errors=ERRORS)
        service = DriveService(
            tiny_system, config,
            fault_injector=self._kill_injector(4, {0: None}),
        )
        poisoned = service.submit(request(seed=0))
        survivor = service.submit(request(seed=1))
        drain(service, [poisoned, survivor])
        with pytest.raises(RuntimeError, match="injected kill"):
            poisoned.result(timeout=0.0)
        assert poisoned.status == "failed"
        stats = service.stats()
        assert stats["quarantined"] == 1
        # max_retries=2 charged attempts, then quarantine on the next.
        assert stats["retried"] == ERRORS.max_retries
        assert stats["active_streams"] == 0
        spec = scaled(get_scenario("highway_commute"), SCALE)
        reference = ClosedLoopRunner(tiny_system.model).run(
            spec, get_policy_spec("static_early").build(tiny_system),
            seed=1, window=1,
        )
        assert survivor.result().records_hex() == reference.records_hex()

    def test_streaming_mode_retries_too(self, tiny_system):
        config = ServingConfig(mode="streaming", compiled=False,
                               errors=ERRORS)
        service = DriveService(
            tiny_system, config,
            fault_injector=self._kill_injector(5, {0: 1}),
        )
        handle = service.submit(request(seed=0))
        drain(service, [handle])
        assert service.stats()["retried"] == 1
        spec = scaled(get_scenario("highway_commute"), SCALE)
        reference = ClosedLoopRunner(tiny_system.model).run(
            spec, get_policy_spec("static_early").build(tiny_system),
            seed=0, window=1,
        )
        assert handle.result().records_hex() == reference.records_hex()

    def test_failed_frame_source_retries_to_bit_identical_trace(
        self, tiny_system
    ):
        # A frame source raising mid-drive fails the stream like a failed
        # step: it restores from its checkpoint onto a fresh source.
        service = DriveService(
            tiny_system, ServingConfig(compiled=False, errors=ERRORS)
        )
        handle = service.submit(request(seed=0))
        service._tick()  # admit + first frame

        def dead_source():
            raise RuntimeError("frame source died")
            yield

        (stream,) = service._workers[0].streams
        stream.frames = dead_source()
        drain(service, [handle])
        assert service.stats()["retried"] == 1
        spec = scaled(get_scenario("highway_commute"), SCALE)
        reference = ClosedLoopRunner(tiny_system.model).run(
            spec, get_policy_spec("static_early").build(tiny_system),
            seed=0, window=1,
        )
        assert handle.result().records_hex() == reference.records_hex()


class TestIdleScheduler:
    def test_idle_service_does_not_busy_wake(self, tiny_system):
        # The satellite fix for the 50 ms idle poll: with no queued and
        # no active streams the loop blocks on its condition variable,
        # so the tick counter must stand still until the next submit.
        with DriveService(tiny_system, ServingConfig(compiled=False)) as service:
            handle = service.submit(request())
            handle.result(timeout=120.0)
            time.sleep(0.1)  # let the loop finish its last tick
            before = service.stats()["ticks"]
            time.sleep(0.5)
            assert service.stats()["ticks"] == before
            # ...and a submit wakes it back up.
            second = service.submit(request(seed=1))
            assert second.result(timeout=120.0).records
