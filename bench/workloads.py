"""Child process of the drive benchmark: one workload in a fresh process.

``run.py`` starts this script once per role:

* ``ensure`` loads the trained system, training it first when the
  artifacts are missing, and reports the training time and the numpy
  build;
* ``setup`` imports, loads and warms one workload, then exits: the
  extra set-up samples behind the ``setup_s`` median;
* ``run`` sets up, measures for ``--seconds``, runs the correctness
  gate and prints one JSON result line on stdout.

Progress goes to stderr.

Every time a metric reports is measured on the process's CPU clock
(``time.process_time``, every thread of the process, less the time
spent sampling the host's speed); ``setup_s`` counts from the process's
start.  The program does its work on one thread at a time (BLAS is
pinned to one thread, the sweep runs in process, the service has one
scheduler), so on an idle core the CPU clock and the wall clock agree;
unlike the wall clock, the CPU clock does not run while the core serves
another process or another guest.
Untraced runs then scale the measured units' CPU times, and every run
its set-up's, to reference time (``speed.py``).  ``--seconds`` is wall
time, so a run's length does not depend on the host's load.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

from speed import HostSpeed

# Set-up is timed from the process's start, imports included, and the
# host's speed is sampled from here on until set-up ends.
SETUP_SPEED = HostSpeed()
SETUP_SPEED.start()
atexit.register(SETUP_SPEED.stop)  # a failed set-up still exits cleanly

import numpy as np  # noqa: E402

import repro  # noqa: E402
from common import QUICK_SPEC, ROOT, TINY_SPEC, percentile, supported  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"repro was imported from {repro.__file__}, not from {ROOT / 'src'}")

from repro.core.ecofusion import BranchOutputCache  # noqa: E402
from repro.evaluation.cache import (  # noqa: E402
    DEFAULT_ARTIFACT_ROOT,
    SystemSpec,
    get_or_build_system,
)
from repro.nn import engine  # noqa: E402
from repro.policies.registry import build_policy  # noqa: E402
from repro.serving import (  # noqa: E402
    DriveRequest,
    DriveService,
    ServiceSaturated,
    ServingConfig,
)
from repro.simulation import (  # noqa: E402
    DEFAULT_POLICIES,
    SCENARIOS,
    ClosedLoopRunner,
    DriveSource,
    run_sweep,
    scaled,
)

import gate  # noqa: E402
import spans  # noqa: E402

T0 = time.monotonic()
ENGINE_STATS = ("compiles", "hits", "misses", "evictions", "replay_fallbacks")
# Warm-ups drive fixed inputs, whatever --seed is: their mAP and energy
# are the map_pct / energy_j_per_frame metrics, which therefore read
# the same on every run of a commit and move only when behaviour does.
WARM_SEED = 1_000_000


def log(message: str) -> None:
    print(f"  [{time.monotonic() - T0:6.1f}s] {message}", file=sys.stderr,
          flush=True)


class TimeBox:
    """--seconds of wall time; no unit starts that would end past it."""

    def __init__(self, seconds: float) -> None:
        self.left = seconds
        self.longest = 0.0

    def unit_took(self, seconds: float) -> None:
        self.left -= seconds
        self.longest = max(self.longest, seconds)

    def room(self) -> bool:
        return self.longest <= self.left


def records_digest(drives: list[gate.Drive]) -> str:
    """One hash of every checked drive's records, in request order."""
    ordered = sorted(drives, key=lambda d: (d.scenario, d.policy, d.seed))
    return hashlib.sha256(json.dumps(
        [d.records_hex for d in ordered], sort_keys=True
    ).encode()).hexdigest()


class Workload:
    """Set-up, measured phase and outputs shared by the workloads."""

    def __init__(self, system, seed: int, seconds: float, smoke: bool,
                 rec: spans.Recorder, speed: HostSpeed) -> None:
        self.system = system
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.rec = rec
        self.speed = speed
        self.names = list(SCENARIOS)[:1 if smoke else None]
        self.policies = [p.name for p in DEFAULT_POLICIES][:2 if smoke else None]
        self.failures: list[str] = []
        self.attempted = 0
        self.drives: list[gate.Drive] = []  # the gate samples these
        self.info: dict = {}
        self.frames_per_s = 0.0
        self.latencies_ms: list[float] = []
        self.warm_outputs: list[tuple[float, int, float]] = []  # mAP, frames, J
        self.traced_cpu_s = 0.0
        # Each measured unit's reference seconds per CPU second.
        self.factors: list[float] = []

    def clock(self) -> float:
        """The process's CPU time, less sampling (see the module doc)."""
        return time.process_time() - self.speed.spent_s

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, traced: bool) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything set-up started."""

    # -- shared outputs ------------------------------------------------
    def keep_warm(self, map_pct: float, frames: int, joules: float) -> None:
        self.warm_outputs.append((map_pct, frames, joules))

    def end_to_end(self) -> tuple[dict, dict]:
        outputs = self.warm_outputs
        frames = sum(n for _, n, _ in outputs)
        n = len(self.latencies_ms)
        return {
            "frames_per_cpu_s": self.frames_per_s,
            "latency_p50_cpu_ms": percentile(self.latencies_ms, 50),
            "latency_p90_cpu_ms": percentile(self.latencies_ms, 90),
            "map_pct": sum(m * f for m, f, _ in outputs) / frames,
            "energy_j_per_frame": sum(j for _, _, j in outputs) / frames,
        }, {"latency_samples": n, "latency_p90_supported": supported(n, 90)}

    def overhead_pct(self) -> float:
        raise NotImplementedError


class Sweep(Workload):
    """``run_sweep`` over the scenario x policy grid, one pass per seed:
    scale 0.25, in process (``jobs=1``), compiled, ``window=32``."""

    scale = 0.25

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.min_passes = 2 if self.smoke else 3
        self.policy_specs = [p for p in DEFAULT_POLICIES
                             if p.name in self.policies]

    def sweep(self, seed: int, **kw) -> dict:
        return run_sweep(
            self.system, scenarios=self.names, policies=self.policy_specs,
            scale=self.scale, seed=seed, window=32, jobs=1, compiled=True,
            **kw,
        )

    def setup(self) -> None:
        # One pass over the measured grid, so setup_s carries the kernel
        # compiles of its shapes.
        results = self.sweep(WARM_SEED)
        for per in results.values():
            for entry in per.values():
                self.keep_warm(entry["map_percent"], entry["num_frames"],
                               entry["total_energy_joules"])

    def measure(self, traced: bool) -> None:
        rec, speed, clock = self.rec, self.speed, self.clock
        self.pass_fps: list[tuple[bool, float]] = []  # (traced, frames/s)
        box = TimeBox(self.seconds)
        index = 0
        while index < self.min_passes or box.room():
            on = traced and index % 2 == 0
            landed: list[float] = []
            rec.enabled = on
            began_wall, began, mark = time.perf_counter(), clock(), speed.mark()
            try:
                with speed.signals():
                    results = self.sweep(
                        self.seed + index, collect_hex=index == 0,
                        progress=lambda *_: landed.append(clock()),
                    )
            except Exception as error:
                box.unit_took(time.perf_counter() - began_wall)
                rec.enabled = False
                self.failures.append(f"pass {index} raised {error!r}")
                self.attempted += len(self.names) * len(self.policies)
                index += 1
                continue
            cpu = clock() - began
            box.unit_took(time.perf_counter() - began_wall)
            rec.enabled = False
            factor = speed.factor(mark)
            self.factors.append(factor)
            if on:
                self.traced_cpu_s += cpu
            entries = [(scenario, policy, entry)
                       for scenario, per in results.items()
                       for policy, entry in per.items()]
            self.attempted += len(entries)
            frames = sum(e["num_frames"] for _, _, e in entries)
            self.pass_fps.append((on, frames / (cpu * factor)))
            self.latencies_ms += [(t - began) * factor * 1000.0
                                  for t in landed]
            if index == 0:  # pass 0 (seed S) is the one the gate checks
                self.drives += [
                    gate.Drive(scenario, self.scale, policy, self.seed,
                               tuple(entry["records_hex"]))
                    for scenario, policy, entry in entries
                ]
            log(f"pass {index} seed={self.seed + index} {frames} frames "
                f"{cpu:.3f} cpu-s x {factor:.3f}{' traced' if on else ''}")
            index += 1
        self.info["passes"] = index
        every = [fps for _, fps in self.pass_fps]
        self.frames_per_s = median(every) if every else 0.0

    def overhead_pct(self) -> float:
        # Pass 0 also collects records: leave it out.
        later = self.pass_fps[1:]
        traced = [fps for on, fps in later if on]
        untraced = [fps for on, fps in later if not on]
        if not traced or not untraced:
            return 0.0
        return (median(untraced) / median(traced) - 1.0) * 100.0


class Vehicle(Workload):
    """One deployed vehicle: frames stepped one at a time, nothing shared.

    Each drive is rendered before it is stepped; only the ``serve_batch``
    calls are timed, but --seconds budgets the whole loop.
    """

    scale = 0.25

    def drive(self, index: int, seed: int, traced: bool,
              times: dict | None = None):
        """Render, step and close one drive; returns its name, policy
        and trace.  With ``times``, each frame's reference time goes to
        ``times["traced"]`` or ``times["untraced"]``."""
        rec, clock, speed = self.rec, self.clock, self.speed
        name = self.names[index % len(self.names)]
        policy_name = self.policies[index % len(self.policies)]
        spec = scaled(SCENARIOS[name], self.scale)
        # DriveSource.materialize(), one frame at a time so a traced run
        # can trace the same alternate frames it steps traced below.
        cursor = iter(DriveSource(spec, seed=seed,
                                  image_size=self.system.model.image_size))
        frames = []
        for i in range(spec.num_frames):
            rec.enabled = traced and i % 2 == 0
            frames.append(next(cursor))
        runner = ClosedLoopRunner(self.system.model, cache=BranchOutputCache())
        policy = build_policy(policy_name, self.system)
        rec.enabled = traced
        state = runner.open_drive(policy)
        initial_soc = state.battery.soc
        stepped, mark = [], speed.mark()
        with engine.use_compiled():
            for i, frame in enumerate(frames):
                on = traced and i % 2 == 0
                rec.enabled = on
                began = clock()
                runner.serve_batch([(frame, spec, policy, state)])
                stepped.append((on, clock() - began))
                if times is not None:
                    speed.tick()
        if times is not None:
            factor = speed.factor(mark)
            self.factors.append(factor)
            for on, elapsed in stepped:
                times["traced" if on else "untraced"].append(elapsed * factor)
        rec.enabled = traced
        trace = runner.close_drive(spec, policy, state, initial_soc)
        rec.enabled = False
        return name, policy_name, trace

    def setup(self) -> None:
        for i in range(len(self.policies)):
            _, _, trace = self.drive(i, WARM_SEED + i, traced=False)
            self.keep_warm(trace.map_result.percent, trace.num_frames,
                           trace.total_energy_joules)

    def measure(self, traced: bool) -> None:
        times = {"traced": [], "untraced": []}
        grid = len(self.names) * len(self.policies)
        box = TimeBox(self.seconds)
        index = 0
        while index < grid or box.room():
            seed = self.seed + index
            self.attempted += 1
            began = time.perf_counter()
            try:
                name, policy, trace = self.drive(index, seed, traced, times)
            except Exception as error:
                self.rec.enabled = False
                self.failures.append(f"drive {index} raised {error!r}")
                index += 1
                continue
            finally:
                box.unit_took(time.perf_counter() - began)
            label = f"{name}/{policy}/seed={seed}"
            self.failures += gate.invariants(self.system, label, trace)
            if index < grid:
                self.drives.append(gate.Drive(name, self.scale, policy, seed,
                                              tuple(trace.records_hex())))
            index += 1
        self.times = times
        every = times["traced"] + times["untraced"]
        self.traced_cpu_s = sum(times["traced"])
        self.latencies_ms = [t * 1000.0 for t in every]
        self.frames_per_s = len(every) / sum(every)
        self.info.update(drives=index, frames=len(every),
                         frame_p99_cpu_ms=percentile(self.latencies_ms, 99),
                         frame_p99_supported=supported(len(every), 99))
        log(f"{index} drives, {len(every)} frames stepped in "
            f"{sum(every):.1f} reference-s")

    def overhead_pct(self) -> float:
        traced, untraced = self.times["traced"], self.times["untraced"]
        return (median(traced) / median(untraced) - 1.0) * 100.0


class Fleet(Workload):
    """A started DriveService draining consolidation bursts.

    A burst queues every policy on each of ``burst_drives`` drives at
    once: each drive's requests share scenario and seed, which is what
    ``dedupe_sources`` and the shared cache consolidate.  The host's
    speed is sampled on the scheduler thread after each batch it serves.
    """

    scale = 0.05
    burst_drives = 32  # x 5 policies: 160 requests

    def setup(self) -> None:
        # The shared cache keeps every finished stream's outputs until it
        # passes max_cache_entries; a burst adds ~5300.  Trimmed below a
        # burst, it stays the same size however many bursts a run fits,
        # and so does peak_rss_mb.
        self.service = DriveService(self.system, ServingConfig(
            mode="batched", max_batch=16, max_active_streams=64,
            queue_capacity=1024, compiled=True, max_cache_entries=4000,
        )).start()
        # One burst, so the batch shapes a burst meets are compiled.
        warm = self.requests(WARM_SEED, 2 if self.smoke else self.burst_drives)
        for handle in [self.service.submit(r) for r in warm]:
            trace = handle.result()
            self.keep_warm(trace.map_result.percent, trace.num_frames,
                           trace.total_energy_joules)

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
        if hasattr(self, "serve_batch"):
            ClosedLoopRunner.serve_batch = self.serve_batch

    def tick_after_batches(self) -> None:
        """Sample the host's speed on the thread that serves batches."""
        serve_batch = self.serve_batch = ClosedLoopRunner.serve_batch
        speed = self.speed

        def ticking(*args, **kwargs):
            result = serve_batch(*args, **kwargs)
            speed.tick()
            return result

        ClosedLoopRunner.serve_batch = ticking

    def requests(self, seed: int, drives: int) -> list[DriveRequest]:
        return [
            DriveRequest(scenario=self.names[d % len(self.names)], policy=p,
                         seed=seed + d, scale=self.scale)
            for d in range(drives) for p in self.policies
        ]

    def finish(self, request: DriveRequest, handle) -> int:
        """Record one finished drive; returns its frames (0 on failure)."""
        label = f"{request.scenario}/{request.policy}/seed={request.seed}"
        try:
            trace = handle.result()
        except Exception as error:
            self.failures.append(f"{label} raised {error!r}")
            return 0
        self.failures += gate.invariants(self.system, label, trace)
        self.drives.append(gate.Drive(request.scenario, self.scale,
                                      request.policy, request.seed,
                                      tuple(trace.records_hex())))
        return trace.num_frames

    def burst(self, seed: int, keep: bool) -> tuple[float, float, float, list]:
        """Queue one burst and wait for it.

        Returns frames per reference second, the CPU time, the
        reference-time factor and the wall time of the burst, and each
        request's reference time to result from the start of the burst,
        in ms (polled every 5 ms).  With ``keep`` the drives go to the
        gate.
        """
        clock = self.clock
        requests = self.requests(seed, 4 if self.smoke else self.burst_drives)
        self.attempted += len(requests)
        start_wall, start, mark = time.perf_counter(), clock(), self.speed.mark()
        handles = []
        for request in requests:
            try:
                handles.append((request, self.service.submit(request)))
            except ServiceSaturated as error:
                self.failures.append(f"burst refused: {error}")
        done_ms: list[float] = []
        pending = [handle for _, handle in handles]
        while pending:
            time.sleep(0.005)
            now = clock()
            finished = [h.done() for h in pending]
            done_ms += [(now - start) * 1000.0 for f in finished if f]
            pending = [h for h, f in zip(pending, finished) if not f]
        cpu = clock() - start  # the scheduler idles once the burst drains
        wall = time.perf_counter() - start_wall
        factor = self.speed.factor(mark)
        frames = 0
        for request, handle in handles:
            if keep:
                frames += self.finish(request, handle)
            else:
                try:
                    frames += handle.result().num_frames
                except Exception as error:
                    self.failures.append(f"burst raised {error!r}")
        log(f"burst: {len(requests)} requests, {frames} frames in "
            f"{cpu:.2f} cpu-s x {factor:.3f} ({wall:.2f}s wall)")
        return (frames / (cpu * factor), cpu, factor, wall,
                [t * factor for t in done_ms])

    def measure(self, traced: bool) -> None:
        rec = self.rec
        quarantined = self.service.stats()["quarantined"]
        self.tick_after_batches()
        # A traced run alternates traced and untraced bursts, the first
        # chosen by seed parity, for the tracing overhead.  Burst 0 has
        # the same requests in both modes, so its records compare.
        self.burst_fps = {True: [], False: []}
        box = TimeBox(self.seconds)
        n = 0
        while n < (2 if traced else 1) or box.room():
            on = traced and (self.seed + n) % 2 == 0
            rec.enabled = on
            fps, cpu, factor, wall, done_ms = self.burst(
                self.seed + 10_000 * n, keep=n == 0)
            rec.enabled = False
            box.unit_took(wall)
            self.factors.append(factor)
            self.burst_fps[on].append(fps)
            if on:
                self.traced_cpu_s += cpu
            else:
                self.latencies_ms += done_ms
            n += 1
        self.frames_per_s = median(self.burst_fps[False])
        stats = self.service.stats()
        gone = stats["quarantined"] - quarantined
        if gone:
            self.failures.append(f"{gone} streams quarantined")
        self.info.update(bursts=n, service={
            k: stats[k] for k in ("completed", "retried", "quarantined",
                                  "cache_entries")})

    def overhead_pct(self) -> float:
        fps = self.burst_fps
        return (median(fps[False]) / median(fps[True]) - 1.0) * 100.0


WORKLOADS = {"sweep_library": Sweep, "vehicle_stream": Vehicle,
             "fleet_open": Fleet}


def layer_metrics(work: Workload, rec: spans.Recorder, engine_delta: dict,
                  overhead: float) -> tuple[dict, dict]:
    t = rec.totals()
    self_s, counts = t["self_s"], t["counts"]
    frames = counts.get("frames", 0.0)

    def per_frame(layer: str) -> float:
        return 1000.0 * self_s.get(layer, 0.0) / frames if frames else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_ratio(kind: str) -> float:
        hits = counts.get(f"cache.{kind}.hits", 0.0)
        return ratio(hits, hits + counts.get(f"cache.{kind}.misses", 0.0))

    lookups = engine_delta["hits"] + engine_delta["misses"]
    return {
        "simulation.drive.ms_per_frame": per_frame("simulation.drive"),
        "core.stems.ms_per_frame": per_frame("core.stems"),
        "core.stems.rows_per_call": ratio(counts.get("core.stems.rows", 0),
                                          counts.get("core.stems.row_calls", 0)),
        "core.gating.ms_per_frame": per_frame("core.gating"),
        "perception.branches.ms_per_frame": per_frame("perception.branches"),
        "perception.branches.rows_per_call": ratio(
            counts.get("perception.branches.rows", 0),
            counts.get("perception.branches.row_calls", 0)),
        "fusion.ms_per_frame": per_frame("fusion"),
        "core.cache.fused_hit_ratio": hit_ratio("fused"),
        "core.cache.branch_hit_ratio": hit_ratio("branch"),
        "core.cache.stem_hit_ratio": hit_ratio("stem"),
        "policies.ms_per_frame": per_frame("policies"),
        "resilience.monitor.ms_per_frame": per_frame("resilience.monitor"),
        "hardware.battery.ms_per_frame": per_frame("hardware.battery"),
        "evaluation.loss.ms_per_frame": per_frame("evaluation.loss"),
        "simulation.closed_loop.glue_ms_per_frame":
            per_frame("simulation.closed_loop"),
        "evaluation.map.ms_per_drive": 1000.0 * ratio(
            self_s.get("evaluation.map", 0.0),
            t["calls"].get("evaluation.map", 0)),
        "nn.engine.compiles": engine_delta["compiles"],
        "nn.engine.hit_ratio": ratio(engine_delta["hits"], lookups),
        "nn.engine.evictions": engine_delta["evictions"],
        "nn.engine.replay_fallbacks": engine_delta["replay_fallbacks"],
        "serving.frames_per_batch": ratio(counts.get("serving.items", 0),
                                          counts.get("serving.batches", 0)),
        "serving.busy_frac": ratio(counts.get("serving.busy_s", 0.0),
                                   work.traced_cpu_s),
        "trace.overhead_pct": overhead,
    }, {
        "traced_frames": frames,
        "traced_cpu_s": work.traced_cpu_s,
        "self_s": dict(self_s),
    }


def setup_seconds() -> float:
    """The process's CPU time so far, less sampling, in reference
    seconds; ends the set-up's sampling."""
    SETUP_SPEED.stop()
    cpu = time.process_time() - SETUP_SPEED.spent_s
    return cpu * SETUP_SPEED.factor((0.0, 0))


def build_system(smoke: bool):
    return get_or_build_system(SystemSpec(**(TINY_SPEC if smoke else QUICK_SPEC)))


def make(args, system, rec: spans.Recorder) -> Workload:
    # Traced runs measure raw CPU time: samples would land inside spans.
    return WORKLOADS[args.workload](system, args.seed, args.seconds,
                                    args.smoke, rec, HostSpeed(not args.trace))


def ensure(smoke: bool) -> dict:
    spec = SystemSpec(**(TINY_SPEC if smoke else QUICK_SPEC))
    present = (DEFAULT_ARTIFACT_ROOT / spec.cache_key() / "meta.json").exists()
    start = time.monotonic()
    get_or_build_system(spec)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "train_s": 0.0 if present else time.monotonic() - start,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(args) -> dict:
    rec = spans.Recorder()
    if args.trace:
        spans.install(rec)
    system = build_system(args.smoke)
    work = make(args, system, rec)
    try:
        work.setup()
        setup_s = setup_seconds()
        log(f"set up in {setup_s:.2f} reference-s")
        before = engine.engine_stats()
        work.measure(traced=bool(args.trace))
        after = engine.engine_stats()
    finally:
        work.close()
    speed = work.speed
    work.info.update(reference_factors=work.factors,
                     speed_samples=speed.samples,
                     kernel_mean_us=1e6 * speed.kernel_s / max(speed.samples, 1))
    engine_delta = {k: after[k] - before[k] for k in ENGINE_STATS}
    chosen = gate.sample(work.drives, args.seed)
    work.failures += gate.check(system, chosen)
    work.attempted += len(chosen)
    log(f"gate: {len(chosen)} drives re-run against the eager reference")
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": work.attempted,
        "failures": work.failures,
        "digest": records_digest(work.drives),
        "info": work.info,
    }
    if args.trace:
        metrics, detail = layer_metrics(work, rec, engine_delta,
                                        work.overhead_pct())
        result["per_layer"] = metrics
        result["info"]["trace"] = detail
        result["info"]["spans"] = rec.write_jsonl(args.spans)
    else:
        metrics, detail = work.end_to_end()
        result["end_to_end"] = metrics
        result["info"].update(detail)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("ensure", "setup", "run"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.role == "ensure":
        SETUP_SPEED.stop()
        out = ensure(args.smoke)
    elif args.role == "setup":
        work = make(args, build_system(args.smoke), spans.Recorder())
        try:
            work.setup()
            out = {"setup_s": setup_seconds()}
        finally:
            work.close()
    else:
        out = run(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
