"""The drive benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep_library --seed 0 --seconds 20
    python3 bench/run.py --seed 0                 # all three, one by one
    python3 bench/run.py --seed 0 --traced        # ... each also traced

Each workload runs in fresh subprocesses (``workloads.py``): two that
only set up, for the ``setup_s`` median, then one that sets up again,
measures for ``--seconds`` and checks its outputs against the eager
reference.  ``--trace 1`` wraps the public call into each program layer
and reports the per-layer metrics instead of the end-to-end ones.  The
last stdout line is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the full result, with host and provenance,
goes to ``bench/results/`` (or ``--out``).  Times are on CPU clocks
(see ``workloads.py``).  The exit code is non-zero when any output is
wrong or a run fails.  ``--smoke`` is a seconds-long pass over the
test-scale system, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from common import BENCH_DIR, PINNED_ENV, RESULTS_DIR, ROOT, load_spec

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
TRAIN_TIMEOUT_S = 900


class ChildFailed(RuntimeError):
    pass


def child(role: str, args, workload: str | None = None, trace: int = 0,
          spans_path=None, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run ``workloads.py`` in a fresh process; returns its JSON line."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")  # this checkout's program only
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--role", role,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace)]
    if workload is not None:
        cmd += ["--workload", workload]
    if args.smoke:
        cmd.append("--smoke")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    label = role if workload is None else f"{role} {workload}"
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{label} exceeded {timeout}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{label} exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or lines[0] != str(ROOT):
        return None  # not a git checkout of its own
    return lines[1]


def provenance(args, ensured: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": ensured["numpy"],
        "blas": ensured["blas"],
        "caller_env": {k: os.environ.get(k, "unset") for k in PINNED_ENV},
        "bench_env": PINNED_ENV,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "train_s": ensured["train_s"],
    }


def run_workload(workload: str, trace: int, args, host: dict) -> dict:
    """Set-up samples plus one measured run; returns the full result."""
    print(f"{workload} (seed {args.seed}, {args.seconds:g}s, "
          f"{'traced' if trace else 'untraced'})", flush=True)
    probes = 0 if args.smoke else SETUP_SAMPLES - 1
    setups = [child("setup", args, workload)["setup_s"] for _ in range(probes)]
    stem = f"{workload}-seed{args.seed}-trace{trace}-{time.time_ns()}"
    spans_path = args.out / f"{stem}.spans.jsonl" if trace else None
    out = child("run", args, workload, trace, spans_path)
    setups.append(out["setup_s"])

    spec = load_spec()
    if trace:
        wanted = spec["per_layer"]
        values = out["per_layer"]
    else:
        wanted = spec["end_to_end"]
        values = dict(out["end_to_end"], setup_s=median(setups),
                      peak_rss_mb=out["peak_rss_mb"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    failures = out["failures"]
    result = {
        "workload": workload,
        "trace": trace,
        "correct": not failures,
        "attempted": out["attempted"],
        "failed": min(len(failures), out["attempted"]),
        "metrics": metrics,
        "setup_samples_s": setups,
        "digest": out["digest"],
        "failures": failures,
        "info": out["info"],
        "host": host,
    }
    if spans_path is not None:
        result["spans_jsonl"] = spans_path.name
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=2))

    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    for failure in failures:
        print(f"  FAILED: {failure}")
    return result


def headline(result: dict) -> dict:
    """The fields of the last stdout line."""
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="test-scale system and tiny grids")
    parser.add_argument("--out", type=Path, default=RESULTS_DIR,
                        help="directory for the result files")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    args.out.mkdir(parents=True, exist_ok=True)

    try:
        ensured = child("ensure", args, timeout=TRAIN_TIMEOUT_S)
        host = provenance(args, ensured)
        if ensured["train_s"]:
            print(f"trained the benchmark system in {ensured['train_s']:.1f}s")
        if args.workload is not None:
            result = run_workload(args.workload, args.trace, args, host)
            print(json.dumps(headline(result)))
            return 0 if result["correct"] else 1

        # Every workload; with --traced each also reruns traced, and
        # its records must equal the untraced run's.
        summary = {}
        for workload in workloads:
            runs = {"untraced": run_workload(workload, 0, args, host)}
            if args.trace:
                traced = run_workload(workload, 1, args, host)
                if traced["digest"] != runs["untraced"]["digest"]:
                    traced["correct"] = False
                    traced["failed"] += 1
                    print("  FAILED: traced records differ from untraced")
                runs["traced"] = traced
            summary[workload] = {mode: headline(r) for mode, r in runs.items()}
    except ChildFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    ok = all(r["correct"] for runs in summary.values() for r in runs.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
