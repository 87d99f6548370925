"""Checks of the drive benchmark itself, on the test-scale system."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import gate
from common import ROOT, TINY_SPEC, load_spec
from repro.evaluation.cache import SystemSpec, get_or_build_system

# The smoke pass takes ~22 s on a 2-core host; the ceiling leaves room
# for a loaded machine without letting the smoke grow unnoticed.
SMOKE_CEILING_S = 60.0


def test_smoke_emits_every_metric_and_checks_outputs():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--seed", "0", "--seconds", "1", "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    trained = re.search(r"trained the benchmark system in ([\d.]+)s",
                        proc.stdout)
    assert elapsed - (float(trained.group(1)) if trained else 0.0) \
        <= SMOKE_CEILING_S

    spec = load_spec()
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == {w["name"] for w in spec["workloads"]}
    for workload, runs in summary.items():
        for mode, wanted in (("untraced", spec["end_to_end"]),
                             ("traced", spec["per_layer"])):
            line = runs[mode]
            assert line["correct"], (workload, mode)
            assert line["failed"] == 0 and line["attempted"] >= 1
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted}
            assert all(math.isfinite(m["value"])
                       for m in line["metrics"].values())


def test_gate_catches_one_ulp_in_one_record():
    system = get_or_build_system(SystemSpec(**TINY_SPEC))
    drive = gate.Drive("degraded_limp_home", 0.1, "ecofusion_attention", 3, ())
    records = gate.reference(system, drive).records_hex()
    clean = dataclasses.replace(drive, records_hex=tuple(records))
    assert gate.check(system, [clean]) == []

    corrupted = [dict(r) for r in records]
    loss = float.fromhex(corrupted[5]["loss"])
    corrupted[5]["loss"] = math.nextafter(loss, math.inf).hex()
    failures = gate.check(
        system, [dataclasses.replace(drive, records_hex=tuple(corrupted))]
    )
    assert len(failures) == 1 and "at frame 5" in failures[0]
