"""Fit ``baseline.json`` from two sets of runs of one commit.

    python3 bench/baseline.py SET_A SET_B [TRACED]

``SET_A`` and ``SET_B`` hold the result files of untraced runs (run.py
``--out``), ten seeds per workload each, run one set after the other;
``TRACED`` optionally holds traced runs, whose per-layer medians are
kept for reference.  For every workload and end-to-end metric this
records set A's median and quartiles, both sets' spread (interquartile
range over median) and the drift between the sets' medians, and fits
the workload's bound: the larger of three times the wider spread and
the drift, rounded up to 0.01 and held within [0.05, 0.24].  A metric
whose fit asked for more than 0.24 is marked ``unmet``.  ``map_pct``
and ``energy_j_per_frame`` are outputs of fixed-seed drives: they get
0.001.  ``compare.py`` judges each workload by its own bound;
``BENCHMARK.json`` holds, per metric, the widest over the workloads.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median

from common import BENCH_DIR, load_spec, quartiles

DETERMINISTIC = {"map_pct": 0.001, "energy_j_per_frame": 0.001}
FLOOR, CEILING = 0.05, 0.24


def collect(directory: Path, trace: int) -> tuple[dict, dict]:
    """workload -> metric -> values, and the host block of one run."""
    values: dict = defaultdict(lambda: defaultdict(list))
    host = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") != trace:
            continue
        host = result["host"]
        for name, metric in result["metrics"].items():
            values[result["workload"]][name].append(metric["value"])
    return values, host


def spread(values: list) -> tuple[float, float, float, float]:
    q1, q2, q3 = quartiles(values)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else 0.0


def fit(name: str, a: list, b: list) -> dict:
    q1, med, q3, spread_a = spread(a)
    _, med_b, _, spread_b = spread(b)
    drift = abs(med_b / med - 1.0) if med else 0.0
    want = max(3.0 * max(spread_a, spread_b), drift)
    bound = DETERMINISTIC.get(
        name, min(max(math.ceil(want * 100.0) / 100.0, FLOOR), CEILING))
    return {"n": len(a), "median": med, "q1": q1, "q3": q3,
            "spread": round(spread_a, 4), "spread_b": round(spread_b, 4),
            "median_b": med_b, "drift": round(drift, 4), "bound": bound,
            "unmet": name not in DETERMINISTIC and want > CEILING}


def main() -> None:
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__)
    spec = load_spec()
    set_a, host = collect(Path(sys.argv[1]), 0)
    set_b, _ = collect(Path(sys.argv[2]), 0)
    out = {"about": "Written by bench/baseline.py; its docstring says how.",
           "host": host, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        out["workloads"][workload] = {
            m["name"]: dict(unit=m["unit"], **fit(
                m["name"], set_a[workload][m["name"]],
                set_b[workload][m["name"]]))
            for m in spec["end_to_end"]
        }
    if len(sys.argv) == 4:
        traced, _ = collect(Path(sys.argv[3]), 1)
        out["per_layer_runs"] = {w: len(next(iter(v.values())))
                                 for w, v in traced.items()}
        out["per_layer_medians"] = {
            w: {name: median(vals) for name, vals in v.items()}
            for w, v in traced.items()}
    (BENCH_DIR / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for workload, rows in out["workloads"].items():
        for name, row in rows.items():
            print(f"{workload:15s} {name:22s} {row['median']:12.4f} "
                  f"spread {row['spread']:.3f}/{row['spread_b']:.3f} "
                  f"drift {row['drift']:.3f} bound {row['bound']:g}"
                  f"{' UNMET' if row['unmet'] else ''}")


if __name__ == "__main__":
    main()
