"""Correctness gate: a seeded sample of drives against the eager reference.

Every workload hands the gate the drives it ran — each as its request
(scenario, scale, policy, seed) plus the ``records_hex()`` it produced —
and the gate re-runs a seeded sample through the sequential
``ClosedLoopRunner.run(window=1)`` path with a fresh cache and compiled
execution off.  Records must match exactly, float hex for float hex.
``check_invariants`` runs on every re-run and on every ``DriveTrace``
the workload itself returned.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.ecofusion import BranchOutputCache
from repro.policies.registry import build_policy
from repro.resilience.invariants import check_invariants
from repro.simulation import ClosedLoopRunner, get_scenario, scaled


@dataclass(frozen=True)
class Drive:
    """One drive a workload ran, and the records it produced."""

    scenario: str
    scale: float
    policy: str
    seed: int
    records_hex: tuple


def sample(drives: list[Drive], seed: int, size: int = 10) -> list[Drive]:
    """``size`` drives chosen by ``seed``, at least one per policy."""
    rng = random.Random(seed)
    by_policy: dict[str, list[Drive]] = {}
    for drive in drives:
        by_policy.setdefault(drive.policy, []).append(drive)
    chosen = [rng.choice(group) for _, group in sorted(by_policy.items())]
    rest = [d for d in drives if all(d is not c for c in chosen)]
    chosen += rng.sample(rest, min(len(rest), max(size - len(chosen), 0)))
    return chosen


def reference(system, drive: Drive):
    """The drive re-run through the eager sequential reference path."""
    spec = get_scenario(drive.scenario)
    if drive.scale != 1.0:
        spec = scaled(spec, drive.scale)
    runner = ClosedLoopRunner(system.model, cache=BranchOutputCache())
    policy = build_policy(drive.policy, system)
    return runner.run(spec, policy, seed=drive.seed, window=1)


def check(system, chosen: list[Drive]) -> list[str]:
    """Failures among the ``chosen`` drives; [] when every one is clean."""
    failures = []
    for drive in chosen:
        label = f"{drive.scenario}/{drive.policy}/seed={drive.seed}"
        try:
            ref = reference(system, drive)
        except Exception as error:  # the reference itself must not fail
            failures.append(f"{label}: reference raised {error!r}")
            continue
        expected = ref.records_hex()
        got = list(drive.records_hex)
        if got != expected:
            frame = next(
                (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                min(len(got), len(expected)),
            )
            failures.append(
                f"{label}: records differ from the eager reference at "
                f"frame {frame} ({len(got)} vs {len(expected)} frames)"
            )
        failures += [f"{label} (reference): {v.invariant} at frame "
                     f"{v.frame}: {v.message}"
                     for v in check_invariants(ref, system.library)]
    return failures


def invariants(system, label: str, trace) -> list[str]:
    return [f"{label}: {v.invariant} at frame {v.frame}: {v.message}"
            for v in check_invariants(trace, system.library)]
