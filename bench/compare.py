"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the result files ``run.py`` writes (its
``bench/results/``).  Untraced runs are paired by workload and seed;
run at least ten seeds on each side, alternating which side runs
first.  For every workload and end-to-end metric this prints each
side's median and quartiles, how many pairs the change won, and a
verdict:

* ``improved``   the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` either side's spread (IQR over median) is wider than
  the bound;
* ``worse``      the change's median is worse than the parent's by more
  than the bound;
* ``unchanged``  otherwise.

The bound is the one ``baseline.json`` fitted to the workload's own
spread; BENCHMARK.json holds each metric's widest, over all workloads.

Fewer than ten pairs gives ``insufficient``.  Per-layer metrics of
traced runs are printed as medians, without a verdict.  The exit code
is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import BENCH_DIR, load_spec, quartiles

MIN_PAIRS = 10


def load(directory: Path, trace: int) -> dict:
    """(workload, seed) -> metric values, the newest run of each pair."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != trace or "metrics" not in result:
            continue
        key = (result["workload"], result["host"]["seed"])
        runs[key] = {k: m["value"] for k, m in result["metrics"].items()}
    return runs


def workload_bounds() -> dict:
    """(workload, metric) -> the bound baseline.json fitted."""
    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    return {(workload, name): row["bound"]
            for workload, rows in baseline["workloads"].items()
            for name, row in rows.items()}


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if len(parent) < MIN_PAIRS:
        return "insufficient", wins
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return "improved", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        return "unresolved", wins
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", wins
    return "unchanged", wins


def fmt(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.4f} [{q1:.4f}, {q3:.4f}]"


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = load_spec()
    bounds = workload_bounds()
    worse = False
    for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        parent, change = load(args.parent, trace), load(args.change, trace)
        for workload in [w["name"] for w in spec["workloads"]]:
            seeds = sorted(s for (w, s) in parent if w == workload
                           and (w, s) in change)
            if not seeds:
                continue
            print(f"{workload} ({'traced' if trace else 'untraced'}, "
                  f"{len(seeds)} pairs)")
            for metric in metrics:
                name = metric["name"]
                p = [parent[(workload, s)][name] for s in seeds]
                c = [change[(workload, s)][name] for s in seeds]
                line = f"  {name:42s} {fmt(p)}  ->  {fmt(c)} {metric['unit']}"
                if "bound" in metric:
                    bound = bounds.get((workload, name), metric["bound"])
                    result, wins = verdict(p, c, metric["better"], bound)
                    worse |= result == "worse"
                    line += (f"  bound {bound:g}  wins {wins}/{len(seeds)}  "
                             f"{result}")
                print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
