"""Closed-loop drives: perception policy x hardware model x battery.

:class:`ClosedLoopRunner` is a pluggable controller loop: it couples any
:class:`~repro.policies.base.PerceptionPolicy` (adaptive EcoFusion with
any gate, SoC-aware lambda_E schedulers, static baselines — see
``repro.policies``) to the full hardware stack per fusion cycle:

* the PX2 cost model prices the chosen configuration's compute
  (branch-level latency through ``hardware.scheduler``, serial by
  default, optionally spread over both GPUs);
* the sensor duty-cycle planner (``core.temporal``) clock-gates unused
  and failed sensors;
* the EV battery (``hardware.battery``) drains by perception + thermal
  overhead + traction energy each cycle, recovering energy on regen
  braking / charging segments declared by the scenario.

The runner owns everything model-shaped — stems, gate inference,
batching, caches, the health-monitor fault mask — and feeds each policy
a :class:`~repro.policies.base.PolicyObservation` per frame; the policy
owns the *decision* (joint optimization, hysteresis, limp-home, lambda_E
scheduling).  Observations carry the battery state of charge *before*
the frame's drain, so SoC-aware policies behave identically in windowed
and sequential execution.

The per-frame :class:`FrameRecord` stream plus the aggregate
:class:`DriveTrace` are the subsystem's deliverable: energy, latency,
accuracy, configuration switching and state-of-charge over a whole drive.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from ..core.config import ModelConfiguration
from ..core.ecofusion import BranchOutputCache, EcoFusionModel
from ..core.gating.base import Gate
from ..core.temporal import SensorDutyCycle, TemporalGate
from ..evaluation.loss_metrics import fusion_loss
from ..evaluation.map import MapResult, evaluate_map
from ..evaluation.reports import format_table
from ..hardware.battery import BatteryState, ElectricVehicle, NOMINAL_EV
from ..hardware.profiler import SystemCosts, fusion_flops
from ..hardware.scheduler import schedule_parallel, schedule_serial
from ..hardware.sensors_power import FUSION_CYCLE_HZ, sensor_energy
from ..nn import batch_invariant, engine
from ..policies.base import PerceptionPolicy, PolicyDecision, PolicyObservation
from ..resilience.guards import sanitize_detections
from ..resilience.monitor import (
    DEFAULT_HEALTH_CONFIG,
    HealthAssessment,
    HealthMonitor,
    HealthMonitorConfig,
    HealthState,
)
from ..telemetry import NullTracer, Telemetry, get_default
from ..telemetry.metrics import ENERGY_BUCKETS_J, LATENCY_BUCKETS_MS, Histogram
from .checkpoint import DriveCheckpoint
from .drive import DriveCursor, DriveFrame, DriveSource
from .scenario import ScenarioSpec

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "FrameRecord",
    "DriveTrace",
    "ClosedLoopRunner",
]

# Version of the DriveTrace.to_dict() payload, carried into benchmark
# JSON so future bench diffs are self-describing.  Bump when fields are
# added, renamed or change meaning.
TRACE_SCHEMA_VERSION = 2

# Version of the optional per-drive ``metrics`` block a telemetry-enabled
# run attaches to the trace.  Deliberately separate from
# TRACE_SCHEMA_VERSION: the block only exists when telemetry was active,
# so committed benchmark JSON (telemetry off) is byte-identical across
# its introduction.
DRIVE_METRICS_SCHEMA_VERSION = 1

# Shared inert tracer for drives without telemetry: the drive step is
# single-source (no duplicated instrumented/plain variants) because every
# span it opens is this tracer's free no-op when telemetry is off.
_NULL_TRACER = NullTracer()


@dataclass
class FrameRecord:
    """Everything observed during one closed-loop fusion cycle."""

    time_index: int
    segment_index: int
    context: str
    config_name: str
    switched: bool
    fault_labels: tuple[str, ...]
    fault_masked: bool  # selection was constrained by failed sensors
    latency_ms: float
    platform_energy_joules: float
    sensor_energy_joules: float
    battery_soc: float
    num_detections: int
    loss: float
    lambda_e: float | None = None  # effective energy weight, if the policy has one
    # Health-monitor state the frame was decided under (always recorded;
    # only serialized into records_hex when the runner has a custom
    # monitor config, so pre-existing float-hex pins are untouched).
    health_state: str = HealthState.NOMINAL.value

    @property
    def energy_joules(self) -> float:
        """Combined platform + sensor energy for the cycle (Eq. 11)."""
        return self.platform_energy_joules + self.sensor_energy_joules


@dataclass
class DriveTrace:
    """Per-drive outcome: the frame records plus aggregate metrics."""

    scenario: str
    policy: str
    records: list[FrameRecord]
    map_result: MapResult
    final_soc: float
    policy_info: dict = field(default_factory=dict)
    initial_soc: float = 1.0  # battery charge before the first frame's drain
    # Compact per-drive metrics block, attached only when the drive ran
    # with metrics enabled (see _drive_metrics_block).  Holds exclusively
    # execution-mode-independent values, so telemetry-enabled traces stay
    # bit-identical between sequential/windowed and eager/compiled runs.
    metrics: dict | None = None
    # Health-monitor block (monitor config, state occupancy, transition
    # and guard-fallback counts), attached only when the drive ran under
    # a custom HealthMonitorConfig — default-monitor output is
    # byte-identical to the pre-resilience schema.
    health: dict | None = None
    # Per-frame fused perception output (list of Detections), attached
    # only when the drive ran with ``collect_detections=True`` — the
    # corpus exporter (repro.scenarios.export) serializes these.
    # ``to_dict()``/``records_hex()`` never include them, so every
    # existing schema and float-hex pin is untouched.
    detections: list | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.records)

    @property
    def config_histogram(self) -> dict[str, int]:
        return dict(Counter(r.config_name for r in self.records))

    @property
    def switch_count(self) -> int:
        return sum(1 for r in self.records if r.switched)

    @property
    def total_energy_joules(self) -> float:
        return float(sum(r.energy_joules for r in self.records))

    @property
    def avg_energy_joules(self) -> float:
        return self.total_energy_joules / max(self.num_frames, 1)

    @property
    def avg_latency_ms(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.latency_ms for r in self.records]))

    @property
    def avg_loss(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.loss for r in self.records]))

    @property
    def soc_trace(self) -> list[float]:
        return [r.battery_soc for r in self.records]

    @property
    def lambda_trace(self) -> list[float]:
        """Per-frame effective lambda_E (frames without one omitted)."""
        return [r.lambda_e for r in self.records if r.lambda_e is not None]

    @property
    def fault_frames(self) -> int:
        return sum(1 for r in self.records if r.fault_labels)

    @property
    def health_histogram(self) -> dict[str, int]:
        """Frames spent in each health-monitor state."""
        return dict(Counter(r.health_state for r in self.records))

    def per_context(self) -> dict[str, dict[str, float]]:
        """Mean energy / latency / loss per driving context."""
        grouped: dict[str, list[FrameRecord]] = {}
        for record in self.records:
            grouped.setdefault(record.context, []).append(record)
        return {
            ctx: {
                "frames": float(len(recs)),
                "energy_joules": float(np.mean([r.energy_joules for r in recs])),
                "latency_ms": float(np.mean([r.latency_ms for r in recs])),
                "loss": float(np.mean([r.loss for r in recs])),
            }
            for ctx, recs in sorted(grouped.items())
        }

    def soc_summary(self) -> str:
        """One-line battery trajectory: start -> min -> end of the drive."""
        if not self.records:
            return "battery: no frames"
        socs = self.soc_trace
        parts = [
            f"battery: {100 * self.initial_soc:.4f}% -> "
            f"{100 * self.final_soc:.4f}% SoC"
            f" (min {100 * min(socs):.4f}%)"
        ]
        lambdas = self.lambda_trace
        if lambdas:
            parts.append(f"lambda_E {lambdas[0]:.3f} -> {lambdas[-1]:.3f}")
        return " | ".join(parts)

    def summary(self) -> str:
        """Human-readable per-context table plus headline aggregates."""
        rows = [
            [ctx, int(stats["frames"]), stats["energy_joules"],
             stats["latency_ms"], stats["loss"]]
            for ctx, stats in self.per_context().items()
        ]
        table = format_table(
            ["context", "frames", "E(J)", "t(ms)", "loss"], rows,
            title=f"{self.scenario} · {self.policy}",
        )
        switches = ", ".join(
            f"{name}x{count}" for name, count in sorted(self.config_histogram.items())
        )
        lines = [
            table,
            f"mAP {self.map_result.percent:.1f}% | avg {self.avg_energy_joules:.2f} J"
            f" | {self.avg_latency_ms:.1f} ms | {self.switch_count} switches"
            f" | {self.fault_frames} faulted frames",
            f"configs: {switches}",
            self.soc_summary(),
        ]
        return "\n".join(lines)

    def records_hex(self) -> list[dict]:
        """Per-frame records with floats as ``float.hex()`` strings.

        The exact-equivalence currency of the benchmarks and CI: two
        execution modes agree iff these lists match — a single ulp of
        drift on any frame fails the comparison.  Records gain a
        ``health`` key only for drives run under a custom monitor
        config, keeping pre-existing pins byte-identical.
        """
        out = []
        for r in self.records:
            entry = {
                "config": r.config_name,
                "switched": r.switched,
                "faults": list(r.fault_labels),
                "latency_ms": float(r.latency_ms).hex(),
                "platform_j": float(r.platform_energy_joules).hex(),
                "sensor_j": float(r.sensor_energy_joules).hex(),
                "soc": float(r.battery_soc).hex(),
                "loss": float(r.loss).hex(),
                "detections": r.num_detections,
            }
            if self.health is not None:
                entry["health"] = r.health_state
            out.append(entry)
        return out

    def to_dict(self) -> dict:
        """JSON-serializable aggregate view (benchmarks).

        The ``metrics`` key is present only when the drive ran with
        telemetry metrics enabled — default output is byte-identical to
        the pre-telemetry schema.
        """
        lambdas = self.lambda_trace
        out = {
            "schema_version": TRACE_SCHEMA_VERSION,
            "scenario": self.scenario,
            "policy": self.policy,
            "policy_describe": dict(self.policy_info),
            "num_frames": self.num_frames,
            "map_percent": self.map_result.percent,
            "avg_loss": self.avg_loss,
            "avg_energy_joules": self.avg_energy_joules,
            "total_energy_joules": self.total_energy_joules,
            "avg_latency_ms": self.avg_latency_ms,
            "switch_count": self.switch_count,
            "config_histogram": self.config_histogram,
            "fault_frames": self.fault_frames,
            "initial_soc": self.initial_soc,
            "final_soc": self.final_soc,
            "lambda_e": (
                {
                    "first": lambdas[0],
                    "last": lambdas[-1],
                    "min": min(lambdas),
                    "max": max(lambdas),
                }
                if lambdas
                else None
            ),
            "per_context": self.per_context(),
        }
        if self.metrics is not None:
            out["metrics"] = self.metrics
        if self.health is not None:
            out["health"] = self.health
        return out


def _drive_metrics_block(trace: DriveTrace) -> dict:
    """The compact per-drive metrics block ``to_dict()`` carries.

    Built purely from the (bit-identical) frame records, so every value
    is independent of execution mode (sequential vs windowed, eager vs
    compiled) and of how many pool shards the drive ran next to.  Engine
    and cache statistics are process-wide and mode-dependent; they go to
    the metrics registry / telemetry summary, never here.
    """
    latency = Histogram(LATENCY_BUCKETS_MS)
    energy = Histogram(ENERGY_BUCKETS_J)
    fault_masked = 0
    for record in trace.records:
        latency.observe(record.latency_ms)
        energy.observe(record.energy_joules)
        if record.fault_masked:
            fault_masked += 1
    socs = trace.soc_trace
    return {
        "schema_version": DRIVE_METRICS_SCHEMA_VERSION,
        "frames": trace.num_frames,
        "latency_ms": latency.summary(),
        "energy_j": energy.summary(),
        "decisions": dict(sorted(trace.config_histogram.items())),
        "fault_masked_frames": fault_masked,
        "soc": {
            "initial": trace.initial_soc,
            "final": trace.final_soc,
            "min": min(socs, default=trace.initial_soc),
            "max": max(socs, default=trace.initial_soc),
        },
    }


@dataclass
class _FrameAccount:
    """Cost/battery bookkeeping computed at decision time for one frame."""

    latency_ms: float
    platform_joules: float
    sensor_joules: float
    soc: float
    switched: bool


@dataclass
class _DriveState:
    """Mutable per-drive state threaded through every drive step."""

    gate: Gate | None
    duty: SensorDutyCycle
    battery: BatteryState
    # Per-drive health-monitor state machine (fresh per run); it steps
    # exactly once per frame.
    monitor: HealthMonitor = field(default_factory=HealthMonitor)
    # Whether the health monitor supplies limp-home masks this drive:
    # the policy's own opt-in (gates trained on drive streams run
    # unmasked, see repro.core.training_drive).
    mask_faults: bool = True
    # Guard-fallback counts for this drive (resilience diagnostics).
    guard_nonfinite_gate: int = 0
    guard_nonfinite_detections: int = 0
    # Active telemetry for this drive, or None (the common case) —
    # the drive step branches on this once to stay zero-overhead when
    # telemetry is off.
    telemetry: Telemetry | None = None
    records: list[FrameRecord] = field(default_factory=list)
    detections_per_frame: list = field(default_factory=list)
    gt_boxes: list = field(default_factory=list)
    gt_labels: list = field(default_factory=list)
    previous_config: str | None = None


class ClosedLoopRunner:
    """Run perception policies closed-loop over scripted drives.

    Every drive advances through one per-frame pipeline, :meth:`_step`,
    over an ordered list of ``(frame, spec, policy, state)`` items:

    * ``run(window=1)`` (default) steps one frame at a time, exactly as
      a deployed single stream would run;
    * ``run(window=W>1)`` steps W-frame lookahead windows of one drive;
    * :meth:`serve_batch` steps one frame from each of several
      concurrent drives (``repro.serving``).

    Within a step, stems and each gate's trunk run once over the items,
    and branch inference is gathered across them so each needed branch
    executes one sub-batch.  All batched stages are batch-invariant
    (verified by the equivalence tests), so every item list yields the
    same trace.  Policy decisions and battery accounting always advance
    item by item, so state-feedback policies (SoC-aware lambda_E) see
    exactly the frame-by-frame battery trajectory.

    With telemetry on, each step emits ``step(size=n) > gate /
    frame x n / branches`` spans.
    """

    def __init__(
        self,
        model: EcoFusionModel,
        vehicle: ElectricVehicle = NOMINAL_EV,
        base_speed_kmh: float = 60.0,
        overhead_factor: float = 1.5,
        cycle_hz: float = FUSION_CYCLE_HZ,
        parallel_engines: bool = False,
        cache: BranchOutputCache | None = None,
        telemetry: Telemetry | None = None,
        health: HealthMonitorConfig | None = None,
    ) -> None:
        self.model = model
        self.vehicle = vehicle
        self.base_speed_kmh = float(base_speed_kmh)
        self.overhead_factor = float(overhead_factor)
        self.cycle_hz = float(cycle_hz)
        self.parallel_engines = bool(parallel_engines)
        self.cache = cache
        # Explicit injection wins over the process default (get_default),
        # which is inert unless telemetry.set_default installed something.
        self.telemetry = telemetry
        # Health-monitor configuration for every drive this runner hosts.
        # None runs the default monitor, which reproduces the legacy
        # stateless limp-home masking bit-for-bit and leaves every output
        # schema untouched; a custom config activates the full degradation
        # ladder and attaches a ``health`` block to each trace.
        self.health = health
        # Per-runner memos: the model library, cost tables and cycle rate
        # are fixed, so these pure lookups never need recomputing.
        self._healthy_memo: dict[tuple[str, ...], np.ndarray] = {}
        self._limp_memo: dict[tuple[str, ...], np.ndarray] = {}
        self._cheapest_mask: np.ndarray | None = None
        self._energy_table: np.ndarray | None = None
        self._config_index: dict[str, ModelConfiguration] | None = None
        self._cost_memo: dict[tuple[str, bool], tuple[float, float]] = {}
        self._sensor_energy_memo: dict[tuple[bool, ...], float] = {}

    def _telemetry(self) -> Telemetry:
        return self.telemetry if self.telemetry is not None else get_default()

    def _monitor(self) -> HealthMonitor:
        return HealthMonitor(
            self.health if self.health is not None else DEFAULT_HEALTH_CONFIG
        )

    # ------------------------------------------------------------------
    def run(
        self,
        spec: ScenarioSpec,
        policy: PerceptionPolicy,
        seed: int = 0,
        battery: BatteryState | None = None,
        window: int = 1,
        frames: list[DriveFrame] | None = None,
        compiled: bool = False,
        resume_from: DriveCheckpoint | None = None,
        checkpoint_every: int | None = None,
        on_checkpoint=None,
        collect_detections: bool = False,
    ) -> DriveTrace:
        """Drive ``spec`` under ``policy``; returns the full trace.

        ``window`` is how many frames each step takes (see class
        docstring).  ``frames`` optionally supplies pre-rendered frames
        for exactly ``(spec, seed)`` — the sweep engine renders each
        scenario once and shares the stream across policies.
        ``compiled=True`` replays stems, the gate trunk and branch trunks
        through the ``repro.nn.engine`` kernel programs (traced once per
        shape, shared across policies via the process-wide LRU); traces
        are bit-identical to eager execution, and ``REPRO_NO_COMPILE=1``
        force-disables it.

        Checkpoint/resume (``window=1`` only): ``on_checkpoint`` receives
        a :class:`DriveCheckpoint` every ``checkpoint_every`` frames
        (default: every frame); a later call with
        ``resume_from=checkpoint`` restores all runner state and
        continues the drive, producing a trace bit-identical —
        ``records_hex()`` and all — to the uninterrupted run.

        ``collect_detections=True`` keeps the per-frame fused
        :class:`~repro.perception.detections.Detections` on the returned
        trace (``trace.detections``) instead of discarding them after
        mAP evaluation — the corpus exporter consumes these.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        if not isinstance(policy, PerceptionPolicy):
            raise TypeError(
                f"expected a PerceptionPolicy, got {type(policy).__name__}; "
                "build one via repro.policies (the DrivePolicy helpers were "
                "removed)"
            )
        checkpointing = on_checkpoint is not None
        if (checkpointing or resume_from is not None) and window != 1:
            raise ValueError(
                "checkpoint/resume requires window=1 (checkpoints are "
                "frame-granular)"
            )
        interval = 1 if checkpoint_every is None else int(checkpoint_every)
        if interval < 1:
            raise ValueError("checkpoint_every must be >= 1")

        if resume_from is not None:
            if battery is not None:
                raise ValueError(
                    "resume_from carries the battery state; pass battery=None"
                )
            if (
                resume_from.scenario != spec.name
                or resume_from.policy != policy.name
                or resume_from.seed != int(seed)
            ):
                raise ValueError(
                    "checkpoint does not match this drive: checkpointed "
                    f"({resume_from.scenario!r}, {resume_from.policy!r}, "
                    f"seed={resume_from.seed}) vs requested "
                    f"({spec.name!r}, {policy.name!r}, seed={int(seed)})"
                )
            state = self.restore_drive(spec, policy, resume_from)
            initial_soc = resume_from.initial_soc
            done = resume_from.frame_index
        else:
            state = self.open_drive(policy, battery)
            initial_soc = state.battery.soc
            done = 0
        cursor: DriveCursor | None = None
        if frames is not None:
            iterator = iter(frames[done:])
        else:
            source = DriveSource(spec, seed=seed, image_size=self.model.image_size)
            cursor = (
                self.resume_cursor(source, resume_from)
                if resume_from is not None else iter(source)
            )
            iterator = cursor
        tel = self._telemetry()
        # Engine/branch-cache counters are process-wide; bracket the
        # drive so only this drive's activity lands in the registry.
        stats_on = tel.active and tel.metrics.enabled
        engine_before = engine.engine_stats() if stats_on else None
        cache_before = (
            self.cache.stats() if stats_on and self.cache is not None else None
        )

        compile_ctx = engine.use_compiled() if compiled else nullcontext()
        with tel.tracer.span(
            "drive", scenario=spec.name, policy=policy.name,
            window=window, compiled=bool(compiled),
        ) as drive_span:
            with compile_ctx:
                while chunk := list(islice(iterator, window)):
                    self._step([(frame, spec, policy, state) for frame in chunk])
                    done += len(chunk)
                    if checkpointing and done % interval == 0:
                        on_checkpoint(self.checkpoint_drive(
                            spec, policy, state,
                            seed=seed, initial_soc=initial_soc,
                            frame_index=done, cursor=cursor,
                        ))
            drive_span.set(frames=len(state.records), final_soc=state.battery.soc)
        return self.close_drive(
            spec, policy, state, initial_soc,
            collect_detections=collect_detections,
            engine_before=engine_before, cache_before=cache_before,
        )

    # ------------------------------------------------------------------
    # Drive lifecycle: open / step / close
    # ------------------------------------------------------------------
    # ``run()`` owns a whole drive's loop.  A serving scheduler instead
    # interleaves frames from many concurrent drives, so it calls the
    # same lifecycle directly: open (fresh per-stream state), step (one
    # cross-stream batch) and close (trace assembly + metrics).  Both go
    # through :meth:`_step`, so served streams are bit-identical to
    # offline drives by construction.

    def open_drive(
        self,
        policy: PerceptionPolicy,
        battery: BatteryState | None = None,
    ) -> "_DriveState":
        """Fresh per-drive state for a drive.

        Binds and resets ``policy`` (each concurrent stream must own its
        policy *instance* — decision state is per-drive) and builds the
        per-stream duty cycle, battery and health monitor (monitors shard
        per stream, never per worker).  Capture ``state.battery.soc``
        before the first step if you need the initial charge for
        :meth:`close_drive`.
        """
        if not isinstance(policy, PerceptionPolicy):
            raise TypeError(
                f"expected a PerceptionPolicy, got {type(policy).__name__}"
            )
        policy.bind(self.model.library, self.model.energies())
        policy.reset()
        tel = self._telemetry()
        return _DriveState(
            gate=policy.runtime_gate,
            duty=SensorDutyCycle(),
            battery=battery or BatteryState(vehicle=self.vehicle),
            monitor=self._monitor(),
            mask_faults=policy.use_fault_masking,
            telemetry=tel if tel.active else None,
        )

    def serve_batch(
        self,
        items: list[tuple[DriveFrame, ScenarioSpec, PerceptionPolicy,
                          "_DriveState"]],
    ) -> None:
        """One cross-drive batched service step.

        ``items`` pairs one pending frame with its stream's
        ``(spec, policy, state)`` — at most one frame per stream, since a
        stream's next frame is only known once this one has been served.
        Every batched stage is batch-invariant and per-stream state is
        touched only by its own frame in item order, so each stream's
        records are bit-identical to running it alone.
        """
        if len({id(item[3]) for item in items}) != len(items):
            raise ValueError("serve_batch: at most one frame per stream "
                             "per batch")
        self._step(items)

    def close_drive(
        self,
        spec: ScenarioSpec,
        policy: PerceptionPolicy,
        state: "_DriveState",
        initial_soc: float,
        *,
        collect_detections: bool = False,
        engine_before: dict | None = None,
        cache_before: dict | None = None,
    ) -> DriveTrace:
        """Finalize a drive into a trace.

        Assembles the trace, attaches the optional health block and, on
        metrics-enabled drives, publishes the drive into the registry.
        ``engine_before``/``cache_before`` are process-wide stats taken
        when the drive started; when given, their deltas are published
        too (a serving scheduler interleaves streams, so it cannot
        attribute those to one drive and passes neither).
        ``collect_detections`` keeps the per-frame fused detections on
        ``trace.detections``.
        """
        trace = DriveTrace(
            scenario=spec.name,
            policy=policy.name,
            records=state.records,
            map_result=evaluate_map(
                state.detections_per_frame, state.gt_boxes, state.gt_labels
            ),
            final_soc=state.battery.soc,
            policy_info=policy.describe(),
            initial_soc=initial_soc,
        )
        if collect_detections:
            trace.detections = list(state.detections_per_frame)
        if self.health is not None:
            # Built purely from frame records + the monitor's own
            # deterministic counters, so the block is identical across
            # every step size, eager/compiled and pool-sharded runs.
            trace.health = {
                "config": asdict(self.health),
                "occupancy": trace.health_histogram,
                "transitions": state.monitor.transitions,
                "guards": {
                    "nonfinite_gate": state.guard_nonfinite_gate,
                    "nonfinite_detections": state.guard_nonfinite_detections,
                },
            }
        tel = state.telemetry
        if tel is not None and tel.metrics.enabled:
            trace.metrics = _drive_metrics_block(trace)
            self._publish_metrics(
                tel.metrics, trace, policy, state, engine_before, cache_before
            )
        return trace

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint_drive(
        self,
        spec: ScenarioSpec,
        policy: PerceptionPolicy,
        state: "_DriveState",
        *,
        seed: int,
        initial_soc: float,
        frame_index: int,
        cursor: DriveCursor | None = None,
    ) -> DriveCheckpoint:
        """Freeze a drive after ``frame_index`` completed frames.

        ``cursor`` is the live frame cursor to snapshot; pass ``None``
        when the stream cannot be snapshotted (externally supplied
        frames, shared serving sources) — restore then fast-forwards a
        fresh cursor, which is equally bit-exact because frames are a
        pure function of ``(spec, seed)``.
        """
        battery = state.battery
        return DriveCheckpoint(
            scenario=spec.name,
            policy=policy.name,
            seed=int(seed),
            frame_index=int(frame_index),
            initial_soc=float(initial_soc),
            source_state=None if cursor is None else cursor.state_dict(),
            policy_state=policy.state_dict(),
            monitor_state=state.monitor.state_dict(),
            duty_state=state.duty.state_dict(),
            battery_state={
                "soc": battery.soc,
                "soc_min": battery.soc_min,
                "soc_max": battery.soc_max,
            },
            previous_config=state.previous_config,
            guard_nonfinite_gate=state.guard_nonfinite_gate,
            guard_nonfinite_detections=state.guard_nonfinite_detections,
            mask_faults=state.mask_faults,
            records=list(state.records),
            detections=list(state.detections_per_frame),
            gt_boxes=list(state.gt_boxes),
            gt_labels=list(state.gt_labels),
        )

    def restore_drive(
        self,
        spec: ScenarioSpec,
        policy: PerceptionPolicy,
        checkpoint: DriveCheckpoint,
    ) -> "_DriveState":
        """Rebuild the per-drive state a checkpoint captured.

        ``policy`` must be the same spec the checkpoint was taken under
        (checked by name); it is re-bound and reset, then its mutable
        per-drive state (hysteresis incumbent, temporal-gate EMA) is
        loaded, so the first frame after restore decides exactly as the
        uninterrupted drive would have.
        """
        if checkpoint.policy != policy.name:
            raise ValueError(
                f"checkpoint was taken under policy {checkpoint.policy!r}, "
                f"got {policy.name!r}"
            )
        if checkpoint.scenario != spec.name:
            raise ValueError(
                f"checkpoint was taken for scenario {checkpoint.scenario!r}, "
                f"got {spec.name!r}"
            )
        policy.bind(self.model.library, self.model.energies())
        policy.reset()
        policy.load_state_dict(checkpoint.policy_state)
        battery = BatteryState(
            vehicle=self.vehicle, soc=float(checkpoint.battery_state["soc"])
        )
        # The lifetime envelope is wider than [soc, soc]; restore it
        # after construction (__post_init__ pins both to soc).
        battery.soc_min = float(checkpoint.battery_state["soc_min"])
        battery.soc_max = float(checkpoint.battery_state["soc_max"])
        monitor = self._monitor()
        monitor.load_state_dict(checkpoint.monitor_state)
        duty = SensorDutyCycle()
        duty.load_state_dict(checkpoint.duty_state)
        tel = self._telemetry()
        return _DriveState(
            gate=policy.runtime_gate,
            duty=duty,
            battery=battery,
            monitor=monitor,
            mask_faults=checkpoint.mask_faults,
            guard_nonfinite_gate=checkpoint.guard_nonfinite_gate,
            guard_nonfinite_detections=checkpoint.guard_nonfinite_detections,
            telemetry=tel if tel.active else None,
            records=list(checkpoint.records),
            detections_per_frame=list(checkpoint.detections),
            gt_boxes=list(checkpoint.gt_boxes),
            gt_labels=list(checkpoint.gt_labels),
            previous_config=checkpoint.previous_config,
        )

    def resume_cursor(
        self, source: DriveSource, checkpoint: DriveCheckpoint
    ) -> DriveCursor:
        """Frame cursor positioned at ``checkpoint.frame_index``.

        Restores the snapshotted cursor when the checkpoint carries one,
        else fast-forwards a fresh cursor (render-and-discard) — both
        yield the identical remaining frame stream.
        """
        if checkpoint.source_state is not None:
            return DriveCursor.from_state(source, checkpoint.source_state)
        cursor = DriveCursor(source)
        for _ in range(checkpoint.frame_index):
            next(cursor)
        return cursor

    # ------------------------------------------------------------------
    # Telemetry publication (metrics-enabled drives only)
    # ------------------------------------------------------------------
    def _publish_metrics(
        self,
        metrics,
        trace: DriveTrace,
        policy: PerceptionPolicy,
        state: "_DriveState",
        engine_before: dict | None,
        cache_before: dict | None,
    ) -> None:
        """Record one drive into the registry.

        Frame-level values go to policy-labeled histograms/counters;
        engine and branch-cache activity is recorded as *deltas* over the
        drive so counters from independent pool shards sum to the true
        process totals when snapshots merge.
        """
        pol = policy.name
        latency = metrics.histogram(
            "drive.frame.latency_ms", buckets=LATENCY_BUCKETS_MS, policy=pol
        )
        energy = metrics.histogram(
            "drive.frame.energy_j", buckets=ENERGY_BUCKETS_J, policy=pol
        )
        for record in trace.records:
            latency.observe(record.latency_ms)
            energy.observe(record.energy_joules)
        metrics.counter("drive.frames", policy=pol).inc(trace.num_frames)
        metrics.counter("drive.switches", policy=pol).inc(trace.switch_count)
        battery = state.battery
        metrics.gauge("battery.soc.final", policy=pol).set(battery.soc)
        metrics.gauge("battery.soc.min", policy=pol).set(battery.soc_min)
        metrics.gauge("battery.soc.max", policy=pol).set(battery.soc_max)
        # Health-state occupancy + guard fallbacks: built from the
        # bit-identical frame records / per-drive counters, so shards
        # merge to the same totals in any execution mode.
        for health_state, count in sorted(trace.health_histogram.items()):
            metrics.counter(
                "health.state_frames", policy=pol, state=health_state
            ).inc(count)
        transitions = sum(
             1 for prev, cur in zip(trace.records, trace.records[1:])
             if prev.health_state != cur.health_state
        )
        if transitions:
            metrics.counter("health.transitions", policy=pol).inc(transitions)
        if state.guard_nonfinite_gate:
            metrics.counter(
                "resilience.guard.nonfinite_gate", policy=pol
            ).inc(state.guard_nonfinite_gate)
        if state.guard_nonfinite_detections:
            metrics.counter(
                "resilience.guard.nonfinite_detections", policy=pol
            ).inc(state.guard_nonfinite_detections)
        if engine_before is not None:
            after = engine.engine_stats()
            for stat, name in (
                ("hits", "engine.program_cache.hits"),
                ("misses", "engine.program_cache.misses"),
                ("evictions", "engine.program_cache.evictions"),
                ("compiles", "engine.compiles"),
                ("replay_fallbacks", "engine.replay_fallbacks"),
            ):
                delta = after[stat] - engine_before[stat]
                if delta:
                    metrics.counter(name).inc(delta)
            metrics.gauge("engine.pool_bytes").set(after["pool_bytes"])
            metrics.gauge("engine.program_bytes").set(after["program_bytes"])
            metrics.gauge("engine.program_entries").set(after["entries"])
        if cache_before is not None:
            after_cache = self.cache.stats()
            for kind, counts in after_cache.items():
                for stat in ("hits", "misses"):
                    delta = counts[stat] - cache_before[kind][stat]
                    if delta:
                        metrics.counter(
                            f"branch_cache.{kind}.{stat}"
                        ).inc(delta)

    # ------------------------------------------------------------------
    # The drive step
    # ------------------------------------------------------------------
    def _step(
        self,
        items: list[tuple[DriveFrame, ScenarioSpec, PerceptionPolicy,
                          "_DriveState"]],
    ) -> None:
        """Advance every item's drive by its frame, in item order.

        ``items`` is an ordered list of ``(frame, spec, policy, state)``;
        the same ``state`` may appear several times, in frame order.
        Gate inference batches over the items, decisions and accounting
        advance item by item (observation *i* carries the SoC after item
        *i-1*'s drain), one branch execution serves all items, and the
        records land in item order.
        """
        if not items:
            return
        tel = items[0][3].telemetry
        tracer = tel.tracer if tel is not None else _NULL_TRACER
        with batch_invariant(), tracer.span("step", size=len(items)):
            samples = [frame.sample for frame, _, _, _ in items]
            with tracer.span("gate"):
                predicted, directs, features_of, features = self._gate(
                    items, samples
                )

            # ``frame`` spans time only the decide+account step — the
            # batched branch work is shared across the items and shows up
            # under the sibling ``branches`` span instead.
            decisions: list[PolicyDecision] = []
            accounts: list[_FrameAccount] = []
            assessments: list[HealthAssessment] = []
            for i, (frame, spec, policy, state) in enumerate(items):
                with tracer.span("frame", t=frame.time_index) as frame_span:
                    # The monitor steps once per frame, with the
                    # pre-drain SoC.
                    assessment = state.monitor.observe(
                        frame.faulted_sensors, state.battery.soc
                    )
                    row = predicted[i]
                    guarded = row is not None and not bool(np.isfinite(row).all())
                    observation = PolicyObservation(
                        time_index=frame.time_index,
                        context=frame.context,
                        soc=state.battery.soc,
                        faulted_sensors=frame.faulted_sensors,
                        healthy_mask=self._mask_for(assessment, frame, state),
                        predicted_losses=None if guarded else row,
                        direct_selection=directs[i],
                        features=features_of[i],
                    )
                    decision = (
                        self._fallback_decision(state) if guarded
                        else policy.decide(observation)
                    )
                    account = self._account(frame, spec, policy, decision, state)
                    if state.telemetry is not None and state.telemetry.metrics.enabled:
                        policy.record_decision(decision, state.telemetry.metrics)
                    frame_span.set(
                        config=decision.config.name,
                        latency_ms=account.latency_ms,
                        energy_j=account.platform_joules + account.sensor_joules,
                        soc=account.soc,
                    )
                    if assessment.state is not HealthState.NOMINAL:
                        frame_span.set(health=assessment.state.value)
                    if decision.fault_masked:
                        frame_span.set(fault_masked=True)
                decisions.append(decision)
                accounts.append(account)
                assessments.append(assessment)

            with tracer.span("branches"):
                fused = self._execute_window(samples, decisions, features)
            for (frame, _, _, state), decision, account, detections, assessment in zip(
                items, decisions, accounts, fused, assessments
            ):
                self._record(frame, decision, account, detections, state, assessment)

    def _gate(self, items, samples):
        """Gate inference for every item.

        Returns per-item predicted-loss rows, direct selections and stem
        features, plus the stem features of all items when one gate group
        covered them (branch execution then reuses them instead of
        running stems again).

        Gate work is grouped by *base* gate object.  Drives built from
        the same policy name share the underlying trained gate (it lives
        in ``system.gates``) but each wraps it in its own stateful
        ``TemporalGate``; running the base inference once per group and
        then applying each item's smoother to its own row, in item order,
        is bit-identical (one row = one state update).
        """
        n = len(items)
        predicted: list = [None] * n
        directs: list[str | None] = [None] * n
        features_of: list[dict | None] = [None] * n
        direct_groups: dict[int, list[int]] = {}
        gate_groups: dict[int, list[int]] = {}
        bases: dict[int, Gate] = {}
        for i, (_, _, _, state) in enumerate(items):
            gate = state.gate
            if gate is None:
                continue
            if gate.bypasses_optimization:
                bases[id(gate)] = gate
                direct_groups.setdefault(id(gate), []).append(i)
                continue
            base = gate.base if isinstance(gate, TemporalGate) else gate
            bases[id(base)] = base
            gate_groups.setdefault(id(base), []).append(i)
        for key, rows in direct_groups.items():
            names = bases[key].select_direct([samples[i].context for i in rows])
            assert names is not None
            for j, i in enumerate(rows):
                directs[i] = names[j]
        features = None
        for key, rows in gate_groups.items():
            sub = [samples[i] for i in rows]
            features = self.model.stem_features_cached(sub, None, self.cache)
            rows_pred = bases[key].predict_losses_windowed(
                self.model.gate_features(features),
                [s.context for s in sub],
                [s.sample_id for s in sub],
            )
            for j, i in enumerate(rows):
                gate = items[i][3].gate
                row = rows_pred[j : j + 1]
                if isinstance(gate, TemporalGate):
                    row = gate.smooth(row)
                predicted[i] = row[0]
                features_of[i] = features
        # One group covering every item: its stems serve branch execution.
        if len(gate_groups) != 1 or None in features_of:
            features = None
        return predicted, directs, features_of, features

    def _execute_window(
        self,
        samples: list,
        decisions: list[PolicyDecision],
        features: dict | None,
    ) -> list:
        """Fused detections per item, batching branch runs across items."""
        fused: list = [None] * len(samples)
        branch_index: dict[str, list[int]] = {}
        pending: list[int] = []
        for i, decision in enumerate(decisions):
            config = decision.config
            hit = (
                self.cache.get_fused(samples[i], config.name)
                if self.cache is not None
                else None
            )
            if hit is not None:
                fused[i] = hit
                continue
            pending.append(i)
            for branch in config.branches:
                branch_index.setdefault(branch, []).append(i)
        if not pending:
            return fused
        per_branch = self.model.branch_outputs_windowed(
            samples, branch_index, features=features, cache=self.cache
        )
        for i in pending:
            config = decisions[i].config
            detections = self.model.fuse_single(
                config, {b: per_branch[b][i] for b in config.branches}
            )
            fused[i] = detections
            if self.cache is not None:
                self.cache.put_fused(samples[i], config.name, detections)
        return fused

    # ------------------------------------------------------------------
    # Per-frame bookkeeping
    # ------------------------------------------------------------------
    def _account(
        self,
        frame: DriveFrame,
        spec: ScenarioSpec,
        policy: PerceptionPolicy,
        decision: PolicyDecision,
        state: "_DriveState",
    ) -> _FrameAccount:
        """Duty-cycle, cost and battery accounting for one decided frame."""
        config = decision.config
        power_state = state.duty.step(config, offline=frame.faulted_sensors)
        latency_ms, platform_j = self._cost(config, policy.powers_all_stems)
        sensors_j = self._sensor_energy(power_state)
        segment = spec.segments[frame.segment_index]
        speed = self.base_speed_kmh * segment.ego_speed
        soc = state.battery.drive_step(
            platform_j + sensors_j,
            speed_kmh=speed,
            duration_s=1.0 / self.cycle_hz,
            overhead_factor=self.overhead_factor,
            regen_fraction=segment.regen,
            charging_watts=segment.charging_watts,
        )
        switched = (
            state.previous_config is not None
            and config.name != state.previous_config
        )
        state.previous_config = config.name
        return _FrameAccount(
            latency_ms=latency_ms,
            platform_joules=platform_j,
            sensor_joules=sensors_j,
            soc=soc,
            switched=switched,
        )

    def _record(
        self,
        frame: DriveFrame,
        decision: PolicyDecision,
        account: _FrameAccount,
        detections,
        state: "_DriveState",
        assessment: HealthAssessment,
    ) -> None:
        sample = frame.sample
        config = decision.config
        # Numeric guard: drop NaN/inf detection rows before they reach
        # fusion-loss and mAP arithmetic.  Clean frames get the same
        # object back, so healthy drives stay bit-identical.
        clean = sanitize_detections(detections)
        if clean is not detections:
            state.guard_nonfinite_detections += 1
            detections = clean
        loss = (
            self.cache.get_loss(sample, config.name)
            if self.cache is not None
            else None
        )
        if loss is None:
            loss = fusion_loss(detections, sample.boxes, sample.labels)
            if self.cache is not None:
                self.cache.put_loss(sample, config.name, loss)
        state.records.append(
            FrameRecord(
                time_index=frame.time_index,
                segment_index=frame.segment_index,
                context=frame.context,
                config_name=config.name,
                switched=account.switched,
                fault_labels=tuple(f.label for f in frame.faults),
                fault_masked=decision.fault_masked,
                latency_ms=account.latency_ms,
                platform_energy_joules=account.platform_joules,
                sensor_energy_joules=account.sensor_joules,
                battery_soc=account.soc,
                num_detections=len(detections),
                loss=loss,
                lambda_e=decision.lambda_e,
                health_state=assessment.state.value,
            )
        )
        state.detections_per_frame.append(detections)
        state.gt_boxes.append(sample.boxes)
        state.gt_labels.append(sample.labels)

    # ------------------------------------------------------------------
    # Health-monitor masking ladder
    # ------------------------------------------------------------------
    def _mask_for(
        self,
        assessment: HealthAssessment,
        frame: DriveFrame,
        state: "_DriveState",
    ) -> np.ndarray | None:
        """Per-config mask the monitor's state prescribes, or None.

        None opens the full configuration space: the monitor is NOMINAL
        (including faulted frames still inside the detection-latency
        window — exactly the exposure a detection delay models), masking
        is disabled for this drive/policy, or a degraded posture is being
        held over healthy frames by recovery hysteresis (nothing to mask
        then).  With the default monitor config this reproduces the
        legacy stateless masking bit-for-bit.
        """
        if not state.mask_faults:
            return None
        health = assessment.state
        if health is HealthState.SAFE_STOP:
            return self._safe_stop_mask()
        if not frame.faulted_sensors:
            return None
        if health is HealthState.LIMP_HOME:
            return self._limp_mask(frame.faulted_sensors)
        if health is HealthState.DEGRADED:
            return self._healthy_mask(frame.faulted_sensors)
        return None

    def _healthy_mask(self, faulted: tuple[str, ...]) -> np.ndarray:
        """True where a configuration touches no failed sensor.

        Falls back to all-healthy when every configuration is impacted
        (better to run degraded perception than none at all).  Memoized
        per fault-set: fault windows span many frames, so the library
        scan runs once per distinct outage instead of per frame.
        """
        cached = self._healthy_memo.get(faulted)
        if cached is not None:
            return cached
        down = set(faulted)
        mask = np.array(
            [not down.intersection(c.sensors) for c in self.model.library]
        )
        if not mask.any():
            mask = np.ones_like(mask)
        mask.setflags(write=False)
        self._healthy_memo[faulted] = mask
        return mask

    def _energies(self) -> np.ndarray:
        """Offline per-config energy table, library order (memoized)."""
        if self._energy_table is None:
            table = np.asarray(self.model.energies(), dtype=np.float64)
            table.setflags(write=False)
            self._energy_table = table
        return self._energy_table

    def _one_hot(self, index: int) -> np.ndarray:
        mask = np.zeros(len(self.model.library), dtype=bool)
        mask[index] = True
        mask.setflags(write=False)
        return mask

    def _limp_mask(self, faulted: tuple[str, ...]) -> np.ndarray:
        """One-hot: the cheapest configuration avoiding the failed sensors.

        When every configuration is impacted (``_healthy_mask`` relaxed
        to all-ones) this degenerates to the cheapest configuration
        overall — still the right limp-home answer.  Memoized per
        fault-set, like the healthy mask.
        """
        cached = self._limp_memo.get(faulted)
        if cached is not None:
            return cached
        healthy = self._healthy_mask(faulted)
        energies = self._energies()
        candidates = np.flatnonzero(healthy)
        index = int(candidates[np.argmin(energies[candidates])])
        mask = self._one_hot(index)
        self._limp_memo[faulted] = mask
        return mask

    def _safe_stop_mask(self) -> np.ndarray:
        """One-hot: the cheapest configuration outright (brownout)."""
        if self._cheapest_mask is None:
            self._cheapest_mask = self._one_hot(int(np.argmin(self._energies())))
        return self._cheapest_mask

    def _configs_by_name(self) -> dict[str, ModelConfiguration]:
        if self._config_index is None:
            self._config_index = {c.name: c for c in self.model.library}
        return self._config_index

    def _fallback_decision(self, state: "_DriveState") -> PolicyDecision:
        """Last-good-config decision for frames with NaN/inf gate losses.

        Repeats the previous frame's configuration (so ``switched`` stays
        False and hysteresis-style continuity is preserved); on a corrupt
        *first* frame there is no incumbent, so the cheapest configuration
        stands in.
        """
        state.guard_nonfinite_gate += 1
        config = None
        if state.previous_config is not None:
            config = self._configs_by_name().get(state.previous_config)
        if config is None:
            config = self.model.library[int(np.argmin(self._energies()))]
        return PolicyDecision(
            config=config, diagnostics={"guard": "nonfinite_gate"}
        )

    def _cost(
        self, config: ModelConfiguration, powers_all_stems: bool
    ) -> tuple[float, float]:
        """(latency_ms, platform_energy_J) via branch-level scheduling.

        Adaptive inference keeps every stem alive (the gate consumes all
        of them); a static pipeline powers only its own sensors' stems.
        Energy always prices the serial (total-work) latency — spreading
        branches across engines moves deadlines, not joules.  Pure in
        ``(config, powers_all_stems)`` given the runner's fixed cost
        model, so memoized per runner.
        """
        key = (config.name, powers_all_stems)
        cached = self._cost_memo.get(key)
        if cached is not None:
            return cached
        costs: SystemCosts = self.model.costs
        lat = costs.px2.latency
        sensors = (
            tuple(costs.stem_flops) if powers_all_stems else config.sensors
        )
        branch_ms = [
            lat.launch_ms + lat.compute_ms(costs.branch_flops[b])
            for b in config.branches
        ]
        fixed = (
            lat.platform_ms
            + lat.compute_ms(sum(costs.stem_flops[s] for s in sensors))
            + sum(lat.prep_ms[s] for s in sensors)
            + lat.compute_ms(fusion_flops(config.num_branches))
        )
        serial = schedule_serial(branch_ms, fixed)
        energy = costs.px2.energy_joules(serial.total_ms, config.num_branches)
        if self.parallel_engines:
            scheduled = schedule_parallel(
                branch_ms, fixed, num_engines=costs.px2.num_engines
            )
            result = (scheduled.total_ms, energy)
        else:
            result = (serial.total_ms, energy)
        self._cost_memo[key] = result
        return result

    def _sensor_energy(self, power_state: dict[str, bool]) -> float:
        """Total per-cycle sensor energy, memoized per power state.

        The power-state dict always lists sensors in ``SENSORS`` order
        (it is built by :class:`SensorDutyCycle`), so the boolean tuple
        is a complete key and the memoized sum was accumulated in the
        same order the per-frame expression used.
        """
        key = tuple(power_state.values())
        cached = self._sensor_energy_memo.get(key)
        if cached is not None:
            return cached
        total = sum(
            sensor_energy(s, gated=not on, cycle_hz=self.cycle_hz)
            for s, on in power_state.items()
        )
        self._sensor_energy_memo[key] = total
        return total
