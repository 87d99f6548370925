"""Service surface: admission, backpressure, lifecycle, telemetry.

Equivalence against offline drives lives in
``test_serving_equivalence.py``; this file covers the queueing and
threading behavior around it — bounded admission raising
:class:`ServiceSaturated`, background start/stop draining cleanly,
request-order results, failure isolation, and the serving histograms.
"""

from __future__ import annotations

import pytest

from repro.serving import (
    DriveRequest,
    DriveService,
    ServiceSaturated,
    ServingConfig,
)
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry

SCALE = 0.1


def request(policy="static_early", scenario="highway_commute", seed=0):
    return DriveRequest(scenario, policy, seed=seed, scale=SCALE)


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="serving mode"):
            ServingConfig(mode="pipelined")

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_active_streams": 0},
        {"queue_capacity": -1},
    ])
    def test_rejects_nonpositive_bounds(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)


class TestBackpressure:
    def test_submit_raises_when_queue_full(self, tiny_system):
        service = DriveService(
            tiny_system, ServingConfig(queue_capacity=2)
        )
        service.submit(request(seed=0))
        service.submit(request(seed=1))
        with pytest.raises(ServiceSaturated):
            service.submit(request(seed=2))
        assert service.stats()["rejected"] == 1

    def test_inline_serve_applies_backpressure(self, tiny_system):
        # serve(block=True) drains the scheduler inline instead of
        # failing: more requests than queue_capacity still all complete.
        service = DriveService(
            tiny_system, ServingConfig(queue_capacity=1, max_batch=4)
        )
        requests = [request(seed=i) for i in range(3)]
        traces = service.serve(requests)
        assert len(traces) == 3
        assert service.stats()["completed"] == 3

    def test_rejected_counter_reaches_telemetry(self, tiny_system):
        telemetry = Telemetry(metrics=MetricsRegistry(enabled=True))
        service = DriveService(
            tiny_system, ServingConfig(queue_capacity=1),
            telemetry=telemetry,
        )
        service.submit(request(seed=0))
        with pytest.raises(ServiceSaturated):
            service.submit(request(seed=1))
        assert telemetry.metrics.counter("serving.rejected").value == 1


class TestLifecycle:
    def test_background_worker_serves_submissions(self, tiny_system):
        with DriveService(
            tiny_system, ServingConfig(max_batch=4)
        ) as service:
            handles = [service.submit(request(seed=i)) for i in range(3)]
            traces = [h.result(timeout=120) for h in handles]
        for handle, trace in zip(handles, traces):
            assert handle.done() and handle.status == "done"
            assert trace.num_frames > 0
        assert service.stats()["active_streams"] == 0

    def test_submit_after_stop_raises(self, tiny_system):
        service = DriveService(tiny_system)
        service.start()
        service.stop()
        # A stopped background service can be restarted...
        service.start()
        service.stop()
        # ...but submitting while stopping is refused.
        service._stopping = True
        with pytest.raises(RuntimeError, match="stopped"):
            service.submit(request())

    def test_results_in_request_order(self, tiny_system):
        # Mixed-length drives: a short stream finishes before a long one
        # but serve() must still return traces in submission order.
        requests = [
            DriveRequest("highway_commute", "static_early", seed=0, scale=0.15),
            DriveRequest("night_rain", "static_late", seed=1, scale=SCALE),
        ]
        service = DriveService(tiny_system, ServingConfig(max_batch=4))
        traces = service.serve(requests)
        assert [t.scenario for t in traces] == [r.scenario for r in requests]
        assert traces[0].num_frames != traces[1].num_frames

    def test_bad_request_fails_only_its_handle(self, tiny_system):
        service = DriveService(tiny_system, ServingConfig(max_batch=4))
        bad = service.submit(DriveRequest("no_such_scenario", "static_early"))
        good = service.submit(request())
        while not (bad.done() and good.done()):
            if not service._tick():
                break
        with pytest.raises(KeyError):
            bad.result()
        assert good.result().num_frames > 0
        assert bad.status == "failed" and good.status == "done"


class TestServingTelemetry:
    def test_latency_and_occupancy_histograms(self, tiny_system):
        telemetry = Telemetry(metrics=MetricsRegistry(enabled=True))
        service = DriveService(
            tiny_system, ServingConfig(max_batch=4), telemetry=telemetry,
        )
        requests = [request(seed=i) for i in range(4)]
        traces = service.serve(requests)
        frames = sum(t.num_frames for t in traces)
        from repro.telemetry.metrics import (
            OCCUPANCY_BUCKETS,
            SERVING_LATENCY_BUCKETS_MS,
        )
        latency = telemetry.metrics.histogram(
            "serving.frame.latency_ms", buckets=SERVING_LATENCY_BUCKETS_MS,
            mode="batched",
        ).summary()
        occupancy = telemetry.metrics.histogram(
            "serving.batch.occupancy", buckets=OCCUPANCY_BUCKETS,
            mode="batched",
        ).summary()
        assert latency["count"] == frames
        assert latency["p50"] > 0
        assert occupancy["max"] <= 4
        assert (telemetry.metrics.counter("serving.frames", mode="batched")
                .value == frames)
        assert service.stats()["frames"] == frames
