"""Tour of ``repro.telemetry``: spans, metrics, profiling, reports.

Walks every layer of the observability substrate over one instrumented
closed-loop drive:

1. **Spans** — run a drive with tracing on, print the nested span tree
   (``drive > step > gate / frame / branches``) and export the JSONL
   trace that ``scripts/trace_report.py`` consumes.
2. **Metrics** — the same drive fills a registry with counters, gauges
   and fixed-bucket histograms; print frame-latency percentiles, the
   policy's decision distribution and branch-cache hit rates.
3. **Kernel profiling** — re-run the drive compiled, inside a
   :func:`~repro.telemetry.kernel_profiling` context, and print the
   top kernels by cumulative replay time.
4. **Summary** — collapse the registry into the schema-versioned
   ``telemetry_summary.json`` document the benches emit.

Everything is read-only instrumentation: the traces printed here are
bit-identical to an uninstrumented run (the test suite pins this
against the golden float-hex traces).

Run:  PYTHONPATH=src python examples/telemetry_tour.py [--tiny]
      [--out DIR]   (default: ./telemetry_tour_out)
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.evaluation import SystemSpec, get_or_build_system
from repro.policies import build_policy
from repro.simulation import ClosedLoopRunner, get_scenario, scaled
from repro.telemetry import (
    Telemetry,
    build_summary,
    kernel_profiling,
    read_jsonl,
    write_summary,
)

QUICK_SPEC = SystemSpec(per_context=8, iterations=150, gate_iterations=200)
TINY_SPEC = SystemSpec(per_context=4, iterations=14, gate_iterations=30,
                       batch_size=4)


def main(tiny: bool, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    print("loading / training the system (cached after first run)...")
    system = get_or_build_system(TINY_SPEC if tiny else QUICK_SPEC)
    spec = scaled(get_scenario("degraded_limp_home"), 0.25)
    policy = build_policy("ecofusion_attention", system)

    # ------------------------------------------------------------- spans
    print("\n=== 1. spans =========================================")
    tel = Telemetry.create()  # tracing + metrics on
    runner = ClosedLoopRunner(system.model, cache=system.cache, telemetry=tel)
    trace = runner.run(spec, policy)
    print(f"drive finished: {trace.num_frames} frames, "
          f"mAP {trace.map_result.percent:.1f}%")
    print("\nspan tree (first few children per level):")
    print(tel.tracer.format_tree(max_children=3, max_depth=2))

    trace_path = out / "trace_tour.jsonl"
    tel.tracer.write_jsonl(trace_path)
    header, spans = read_jsonl(trace_path)
    print(f"\nwrote {trace_path} ({header['spans']} spans); analyze with:")
    print(f"  PYTHONPATH=src python scripts/trace_report.py {trace_path}")

    # ----------------------------------------------------------- metrics
    print("\n=== 2. metrics =======================================")
    snapshot = tel.metrics.snapshot()
    for key, raw in snapshot["histograms"].items():
        if key.startswith("drive.frame.latency_ms"):
            from repro.telemetry import Histogram

            summary = Histogram.from_dict(raw).summary()
            print(f"{key}:")
            print(f"  p50={summary['p50']:.2f} ms  p90={summary['p90']:.2f} ms"
                  f"  p99={summary['p99']:.2f} ms")
    decisions = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("policy.decisions")
    }
    print("decision counters:")
    for key, value in sorted(decisions.items()):
        print(f"  {key} = {value}")
    cache_counters = {
        key: value
        for key, value in snapshot["counters"].items()
        if key.startswith("branch_cache.")
    }
    if cache_counters:
        print("branch-cache counters:")
        for key, value in sorted(cache_counters.items()):
            print(f"  {key} = {value}")

    # The per-drive block every telemetry-enabled trace carries:
    print("\nper-drive metrics block (DriveTrace.to_dict()['metrics']):")
    print(json.dumps(trace.metrics, indent=2, sort_keys=True)[:400] + " ...")

    # ---------------------------------------------------- kernel profile
    print("\n=== 3. kernel profiling ==============================")
    with kernel_profiling() as prof:
        runner.run(spec, policy, compiled=True)
    print("top kernels by cumulative replay time:")
    print(prof.table(k=8))

    # ----------------------------------------------------------- summary
    print("\n=== 4. summary =======================================")
    summary_path = out / "telemetry_summary.json"
    summary = write_summary(
        summary_path,
        tel.metrics.snapshot(),
        meta={"example": "telemetry_tour"},
        kernel_profile=prof.to_dict(k=8),
    )
    print(f"wrote {summary_path}")
    print(f"frames={summary['frames']}  "
          f"engine={summary['engine']}")
    # build_summary/validate_summary are the same machinery CI uses to
    # gate the bench smokes' telemetry output.
    assert build_summary(tel.metrics.snapshot())["frames"] == summary["frames"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="use the test-scale system (fast, noisy)")
    parser.add_argument("--out", type=Path,
                        default=Path("telemetry_tour_out"),
                        help="output directory for trace + summary files")
    args = parser.parse_args()
    main(args.tiny, args.out)
