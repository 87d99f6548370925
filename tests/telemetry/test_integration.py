"""Telemetry end to end: bit-identity, runner wiring, sweep merging.

The load-bearing contract: telemetry only *reads* the drive — every
pinned golden trace must reproduce float-hex exactly with full
instrumentation on, the per-drive metrics block must be independent of
execution mode, and ``run_sweep`` must aggregate shard snapshots so
``--jobs N`` telemetry equals the in-process run.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

import pytest

from repro.core.ecofusion import BranchOutputCache
from repro.policies import build_policy, get_policy_spec
from repro.simulation import (
    ClosedLoopRunner,
    SCENARIOS,
    get_scenario,
    run_sweep,
    scaled,
)
from repro.simulation.closed_loop import DRIVE_METRICS_SCHEMA_VERSION
from repro.simulation.drive import DriveSource
from repro.telemetry import (
    Telemetry,
    build_summary,
    read_jsonl,
    set_default,
    validate_summary,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "gen_golden_traces", REPO_ROOT / "scripts" / "gen_golden_traces.py"
)
_generator = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(_generator)

GOLDEN = json.loads(
    (REPO_ROOT / "tests" / "simulation" / "golden_traces.json").read_text()
)

# A cross-section of the golden set: one adaptive, one knowledge-gated,
# one static policy (the full matrix is pinned uninstrumented in
# tests/simulation/test_golden_equivalence.py).
PINNED_KEYS = (
    "camera_outage/attention",
    "transition/knowledge",
    "highway_commute@0.1/static_late",
)


def run_drive(system, scenario="highway_commute", scale=0.06, policy_name="ecofusion_attention",
              telemetry=None, **kwargs):
    spec = scaled(get_scenario(scenario), scale)
    runner = ClosedLoopRunner(
        system.model, cache=BranchOutputCache(), telemetry=telemetry
    )
    return runner.run(spec, build_policy(policy_name, system), **kwargs)


class TestBitIdentity:
    @pytest.mark.parametrize("window", [1, 8], ids=["sequential", "windowed"])
    @pytest.mark.parametrize("key", PINNED_KEYS)
    def test_instrumented_drive_matches_golden(self, tiny_system, key, window):
        """Full telemetry (spans + metrics) on a compiled drive must not
        move a single ulp vs the pre-telemetry golden traces."""
        scenario_key, policy_key = key.split("/")
        spec = _generator.GOLDEN_SCENARIOS[scenario_key]
        policy = _generator.build_policies(tiny_system)[policy_key]
        tel = Telemetry.create()
        trace = ClosedLoopRunner(
            tiny_system.model, cache=BranchOutputCache(), telemetry=tel
        ).run(spec, policy, seed=GOLDEN["seed"], window=window, compiled=True)
        pinned = GOLDEN["traces"][key]
        assert float(trace.final_soc).hex() == pinned["final_soc"]
        assert float(trace.map_result.mean_ap).hex() == pinned["map_mean_ap"]
        assert len(trace.records) == len(pinned["records"])
        for record, gold in zip(trace.records, pinned["records"]):
            assert record.config_name == gold["config_name"]
            assert record.fault_masked == gold["fault_masked"]
            for field in (
                "latency_ms", "platform_energy_joules",
                "sensor_energy_joules", "battery_soc", "loss",
            ):
                assert float(getattr(record, field)).hex() == gold[field], (
                    f"{key} frame {record.time_index}: {field} drifted "
                    f"under telemetry (window={window})"
                )
        # And the instrumentation actually ran: spans + metrics exist.
        assert tel.tracer.finished
        assert len(tel.metrics) > 0


class TestDriveMetricsBlock:
    def test_present_only_when_metrics_enabled(self, tiny_system):
        plain = run_drive(tiny_system)
        assert plain.metrics is None
        assert "metrics" not in plain.to_dict()

        traced_only = run_drive(
            tiny_system, telemetry=Telemetry.create(metrics=False)
        )
        assert traced_only.metrics is None

        instrumented = run_drive(tiny_system, telemetry=Telemetry.create())
        block = instrumented.metrics
        assert block is not None
        assert instrumented.to_dict()["metrics"] == block
        assert block["schema_version"] == DRIVE_METRICS_SCHEMA_VERSION
        assert block["frames"] == instrumented.num_frames
        assert block["latency_ms"]["count"] == instrumented.num_frames
        assert sum(block["decisions"].values()) == instrumented.num_frames
        soc = block["soc"]
        assert soc["final"] == instrumented.final_soc
        assert soc["min"] <= soc["final"] <= soc["max"]
        assert soc["initial"] == instrumented.initial_soc

    def test_block_is_mode_independent(self, tiny_system):
        """Sequential and windowed drives see the same records, so the
        per-drive block — unlike process-wide engine stats — must match."""
        seq = run_drive(tiny_system, telemetry=Telemetry.create(tracing=False),
                        window=1)
        win = run_drive(tiny_system, telemetry=Telemetry.create(tracing=False),
                        window=8, compiled=True)
        assert seq.metrics == win.metrics


class TestRunnerWiring:
    @pytest.mark.parametrize("mode", ["window=1", "window=4", "served"])
    def test_step_span_tree_shape(self, tiny_system, mode):
        """Every mode emits ``step > gate / frame x size / branches``,
        one ``frame`` span per item carrying that frame's record."""
        tel = Telemetry.create(metrics=False)
        if mode == "served":
            # Two streams replaying one drive, one frame each per batch.
            spec = scaled(get_scenario("highway_commute"), 0.06)
            runner = ClosedLoopRunner(
                tiny_system.model, cache=BranchOutputCache(), telemetry=tel
            )
            streams = []
            for name in ("ecofusion_attention", "static_late"):
                policy = build_policy(name, tiny_system)
                streams.append((policy, runner.open_drive(policy)))
            frames = DriveSource(
                spec, image_size=tiny_system.model.image_size
            ).materialize()
            for frame in frames:
                runner.serve_batch(
                    [(frame, spec, policy, state) for policy, state in streams]
                )
            traces = [
                runner.close_drive(spec, policy, state, 1.0)
                for policy, state in streams
            ]
            records = [r for pair in zip(*(t.records for t in traces))
                       for r in pair]
            steps, size = tel.tracer.roots, 2
        else:
            size = int(mode.split("=")[1])
            trace = run_drive(tiny_system, telemetry=tel, window=size)
            (drive,) = tel.tracer.roots
            assert drive.name == "drive"
            assert drive.attrs["frames"] == trace.num_frames
            steps, records = drive.children, trace.records
        assert steps and all(s.name == "step" for s in steps)
        assert all(s.attrs["size"] <= size for s in steps)
        assert sum(s.attrs["size"] for s in steps) == len(records)
        for step in steps:
            assert [c.name for c in step.children] == (
                ["gate"] + ["frame"] * step.attrs["size"] + ["branches"]
            )
        frames = [c for s in steps for c in s.children if c.name == "frame"]
        for frame, record in zip(frames, records):
            assert frame.attrs["config"] == record.config_name
            assert frame.attrs["latency_ms"] == record.latency_ms

    def test_registry_reflects_the_drive(self, tiny_system):
        tel = Telemetry.create(tracing=False)
        trace = run_drive(tiny_system, telemetry=tel, compiled=True)
        snap = tel.metrics.snapshot()
        pol = trace.policy
        assert snap["counters"][f"drive.frames{{policy={pol}}}"] == trace.num_frames
        decisions = sum(
            v for k, v in snap["counters"].items()
            if k.startswith("policy.decisions{")
        )
        assert decisions == trace.num_frames
        lat = snap["histograms"][f"drive.frame.latency_ms{{policy={pol}}}"]
        assert lat["count"] == trace.num_frames
        assert snap["gauges"][f"battery.soc.final{{policy={pol}}}"]["last"] == (
            trace.final_soc
        )
        # A compiled drive touched the engine program LRU.
        from repro.nn import engine

        if not engine.compile_disabled():
            assert any(
                k.startswith("engine.program_cache.") for k in snap["counters"]
            )
        summary = build_summary(snap)
        validate_summary(summary)
        assert summary["frames"] == trace.num_frames

    def test_process_default_telemetry_applies(self, tiny_system):
        tel = Telemetry.create(tracing=False)
        previous = set_default(tel)
        try:
            trace = run_drive(tiny_system)  # no explicit telemetry arg
        finally:
            set_default(previous)
        assert trace.metrics is not None
        assert len(tel.metrics) > 0
        # …and the default is inert again afterwards.
        assert run_drive(tiny_system).metrics is None


class TestSweepTelemetry:
    NAMES = list(SCENARIOS)[:2]
    POLICIES = (
        get_policy_spec("ecofusion_attention"),
        get_policy_spec("static_late"),
    )

    def _sweep(self, system, jobs, trace_dir=None):
        tel = Telemetry.create(tracing=False)
        results = run_sweep(
            system, scenarios=self.NAMES, policies=self.POLICIES,
            scale=0.08, seed=0, window=8, jobs=jobs, compiled=True,
            telemetry=tel, trace_dir=trace_dir,
        )
        return results, tel.metrics.snapshot()

    def test_pool_shards_merge_to_the_inprocess_registry(self, tiny_system):
        """jobs=2 runs each shard's registry in a worker; the merged
        parent registry must equal the jobs=1 run for every
        drive/policy-scoped metric (engine gauges are process-local and
        excluded by construction — they live under engine.*)."""
        results_1, snap_1 = self._sweep(tiny_system, jobs=1)
        results_2, snap_2 = self._sweep(tiny_system, jobs=2)

        def strip_walls(results):
            return {
                s: {p: {k: v for k, v in e.items() if k != "wall_seconds"}
                    for p, e in per.items()}
                for s, per in results.items()
            }

        assert strip_walls(results_1) == strip_walls(results_2)

        def drive_scoped(snap):
            keep = ("drive.", "policy.", "battery.")
            return {
                section: {
                    k: v for k, v in snap[section].items()
                    if k.startswith(keep)
                }
                for section in ("counters", "gauges", "histograms")
            }

        scoped_1, scoped_2 = drive_scoped(snap_1), drive_scoped(snap_2)
        assert scoped_1["counters"] == scoped_2["counters"]
        # Histograms: bucket counts and extrema are exact; ``sum`` is a
        # float accumulated in shard order, so grouping differs by ulps.
        assert set(scoped_1["histograms"]) == set(scoped_2["histograms"])
        for key, hist in scoped_1["histograms"].items():
            other = scoped_2["histograms"][key]
            for field in ("edges", "counts", "count", "min", "max"):
                assert hist[field] == other[field], f"{key}: {field}"
            assert hist["sum"] == pytest.approx(other["sum"], rel=1e-12)
        # Gauges: last-value depends on shard completion order; the
        # observation counts and envelopes still must agree.
        for key, gauge in scoped_1["gauges"].items():
            other = scoped_2["gauges"][key]
            assert gauge["count"] == other["count"], key
            assert gauge["min"] == other["min"], key
            assert gauge["max"] == other["max"], key
        # Both snapshots summarize into valid documents.
        for snap in (snap_1, snap_2):
            summary = build_summary(snap)
            validate_summary(summary)
            assert summary["frames"] == sum(
                e["num_frames"] for per in results_1.values()
                for e in per.values()
            )

    def test_trace_dir_writes_one_file_per_scenario(self, tiny_system, tmp_path):
        _, snap = self._sweep(tiny_system, jobs=1, trace_dir=str(tmp_path))
        files = sorted(tmp_path.glob("trace_*.jsonl"))
        assert [f.name for f in files] == [
            f"trace_{name}.jsonl" for name in sorted(self.NAMES)
        ]
        for path in files:
            header, spans = read_jsonl(path)
            drives = [s for s in spans if s["name"] == "drive"]
            assert len(drives) == len(self.POLICIES)
        # Per-policy wall histograms were recorded alongside the spans.
        assert any(
            k.startswith("sweep.drive.wall_seconds")
            for k in snap["histograms"]
        )


class TestOverheadGuards:
    def test_noop_span_cost_is_bounded(self):
        """Disabled-mode spans are one shared object; creating 100k of
        them must stay comfortably sub-second (generous CI bound)."""
        from repro.telemetry import NULL_TELEMETRY

        tracer = NULL_TELEMETRY.tracer
        start = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("frame", t=0):
                pass
        assert time.perf_counter() - start < 1.0

    def test_disabled_telemetry_leaves_the_drive_path_alone(self, tiny_system):
        """A runner holding an inert Telemetry must take the identical
        reference path (state.telemetry is None) as no telemetry at all;
        guard the wall-clock ratio generously against regressions that
        would put branching back into the per-frame loop."""
        def timed(telemetry):
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                trace = run_drive(tiny_system, scale=0.1, telemetry=telemetry)
                best = min(best, time.perf_counter() - start)
            return best, trace

        timed(None)  # warm caches (branch memo, scenario rendering)
        base, ref = timed(None)
        inert, trace = timed(Telemetry.disabled())
        assert trace.metrics is None
        assert [r.config_name for r in trace.records] == [
            r.config_name for r in ref.records
        ]
        # Same code path, so parity up to timer noise; 1.5x is the
        # loudly-broken threshold, not a perf target.
        assert inert < base * 1.5 + 0.05
