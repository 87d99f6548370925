"""Shared constants and statistics for the drive benchmark.

Standard library only: ``run.py`` and ``compare.py`` import this module
without importing the program, so they still start (and fail cleanly)
in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

# The trained systems the benchmark drives.  QUICK is the one
# benchmarks/bench_runtime.py and bench_serving.py use; TINY is the
# test-scale system of tests/conftest.py, used by --smoke.
QUICK_SPEC = {"per_context": 8, "iterations": 150, "gate_iterations": 200}
TINY_SPEC = {"per_context": 4, "iterations": 14, "gate_iterations": 30,
             "batch_size": 4}

# BLAS threads are pinned to one in every benchmark process, so each
# workload does its work on one thread and that thread's CPU clock
# measures all of it.  Unpinned, OpenBLAS starts one thread per core.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def load_spec() -> dict:
    """BENCHMARK.json, the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def supported(n: int, q: float) -> bool:
    """True when at least ten of ``n`` samples lie beyond percentile q."""
    return n * (1.0 - q / 100.0) >= 10
