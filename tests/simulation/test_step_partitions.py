"""Any partition of drives into drive steps yields the same records.

``ClosedLoopRunner._step`` takes an ordered list of ``(frame, spec,
policy, state)`` items in which one drive may appear several times, in
frame order.  Sequential, windowed and served drives are just different
item lists.  This property test steps a faulted drive through random
partitions (1-8 frames per step) with a second drive's frames
interleaved into the same steps, and requires both drives' records to
equal their ``run(window=1)`` references bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import build_policy
from repro.resilience.monitor import HealthMonitorConfig
from repro.simulation import ClosedLoopRunner, get_scenario, scaled
from repro.simulation.drive import DriveSource

SCALE = 0.1
# Debounce, hysteresis and limp-home, so the monitor ladder moves.
HEALTH = HealthMonitorConfig(
    detection_latency=1, recovery_hysteresis=2, limp_home_streams=3
)
# The faulted drive runs a smoothed, SoC-aware attention gate.
FAULTED = ("sensor_stress_test", "soc_linear_attention", 3)

_references: dict = {}


def reference(system, scenario, policy_name, seed):
    """``run(window=1)`` records of one drive (memoized per module)."""
    key = (scenario, policy_name, seed)
    if key not in _references:
        runner = ClosedLoopRunner(system.model, health=HEALTH)
        trace = runner.run(
            scaled(get_scenario(scenario), SCALE),
            build_policy(policy_name, system), seed=seed,
        )
        _references[key] = trace.records_hex()
    return _references[key]


@pytest.mark.parametrize("other", [
    # Same base gate as the faulted drive: one gate group, two smoothers.
    ("night_rain", "ecofusion_attention", 4),
    # A knowledge gate: a second gate group in the same steps.
    ("degraded_limp_home", "ecofusion_knowledge", 5),
], ids=["same-gate", "other-gate"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_partition_matches_sequential(tiny_system, other, data):
    # No cache: stems handed from the gate phase to branch execution
    # must be the same rows branch execution would compute itself.
    runner = ClosedLoopRunner(tiny_system.model, health=HEALTH)
    drives = []
    for scenario, policy_name, seed in (FAULTED, other):
        spec = scaled(get_scenario(scenario), SCALE)
        policy = build_policy(policy_name, tiny_system)
        frames = DriveSource(
            spec, seed=seed, image_size=tiny_system.model.image_size
        ).materialize()
        state = runner.open_drive(policy)
        drives.append((spec, policy, state, state.battery.soc, frames))

    queues = [list(drive[4]) for drive in drives]
    while queues[0]:
        sizes = (
            data.draw(st.integers(1, 8), label="faulted frames"),
            data.draw(st.integers(0, 8), label="other frames"),
        )
        order = data.draw(st.permutations(
            [d for d, size in enumerate(sizes) for _ in range(size)]
        ), label="interleaving")
        items = []
        for d in order:
            if queues[d]:
                spec, policy, state, _, _ = drives[d]
                items.append((queues[d].pop(0), spec, policy, state))
        runner._step(items)
    spec, policy, state, _, _ = drives[1]
    for frame in queues[1]:
        runner._step([(frame, spec, policy, state)])

    for (scenario, policy_name, seed), (spec, policy, state, soc, _) in zip(
        (FAULTED, other), drives
    ):
        trace = runner.close_drive(spec, policy, state, soc)
        assert trace.records_hex() == reference(
            tiny_system, scenario, policy_name, seed
        ), f"{scenario}/{policy_name} diverged"
