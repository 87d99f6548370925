"""Drive-trained policy specs: pickling, sweeps, describe stability,
and the unmasked closed-loop path they unlock.
"""

from __future__ import annotations

import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.ecofusion import BranchOutputCache
from repro.core.training_drive import ensure_drive_gates
from repro.policies import (
    EcoFusionPolicy,
    PolicySpec,
    build_policy,
    get_policy_spec,
    policy_names,
)
from repro.simulation import ClosedLoopRunner, SCENARIOS, run_sweep, scaled

# Load MICRO from its single source of truth, so the shared session
# system trains its throwaway drive gates at most once — the configs can
# never drift apart (same pattern as the golden-trace generator import).
REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "drive_training_tests", REPO_ROOT / "tests" / "core" / "test_training_drive.py"
)
_drive_training_tests = importlib.util.module_from_spec(_spec)
assert _spec.loader is not None
_spec.loader.exec_module(_drive_training_tests)
MICRO = _drive_training_tests.MICRO


@pytest.fixture(scope="module")
def drive_system(tiny_system, tmp_path_factory):
    """Tiny system with micro drive gates pre-installed, so registry
    builds never fall back to the (expensive) default training config.
    Module-scoped: ensure() is config-keyed, so one training run serves
    every test here."""
    root = tmp_path_factory.mktemp("drive_gates")
    ensure_drive_gates(tiny_system, MICRO, root=root)
    return tiny_system


class TestSpecRoundTrip:
    def test_registered_names(self):
        names = policy_names()
        assert "ecofusion_drive_attention" in names
        assert "ecofusion_drive_deep" in names

    @pytest.mark.parametrize(
        "name", ["ecofusion_drive_attention", "ecofusion_drive_deep"]
    )
    def test_pickle_round_trip_preserves_spec(self, name):
        spec = get_policy_spec(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fault_masking is False
        assert clone.gate.startswith("drive_")

    def test_build_from_unpickled_spec(self, drive_system):
        spec = pickle.loads(pickle.dumps(get_policy_spec("ecofusion_drive_attention")))
        policy = spec.build(drive_system)
        assert isinstance(policy, EcoFusionPolicy)
        assert policy.use_fault_masking is False
        assert policy.gate is drive_system.gates["drive_attention"]

    def test_describe_stability(self, drive_system):
        """describe() is part of the benchmark payload: pin it exactly."""
        policy = build_policy("ecofusion_drive_attention", drive_system)
        assert policy.describe() == {
            "name": "ecofusion_drive_attention",
            "kind": "ecofusion",
            "gate": "drive_attention",
            "lambda_e": 0.05,
            "gamma": 0.5,
            "alpha": 0.4,
            "hysteresis_margin": 0.05,
            "fault_masking": False,
        }
        # Masked policies keep their pre-existing (flag-free) description.
        masked = build_policy("ecofusion_attention", drive_system)
        assert "fault_masking" not in masked.describe()

    def test_unknown_gate_still_rejected(self, tiny_system):
        with pytest.raises(KeyError, match="unknown gate"):
            PolicySpec("x", "adaptive", gate="nope").build(tiny_system)

    def test_fault_masking_override_rules(self, drive_system):
        policy = build_policy(
            "ecofusion_drive_attention", drive_system, fault_masking=True
        )
        assert policy.use_fault_masking is True
        with pytest.raises(ValueError, match="no effect"):
            build_policy("static_late", drive_system, fault_masking=False)


class TestUnmaskedClosedLoop:
    SPEC = scaled(SCENARIOS["degraded_limp_home"], 0.1)

    def test_unmasked_policy_never_fault_masked(self, drive_system):
        runner = ClosedLoopRunner(drive_system.model, cache=BranchOutputCache())
        trace = runner.run(
            self.SPEC, build_policy("ecofusion_drive_attention", drive_system), seed=0
        )
        assert trace.fault_frames > 0  # the drive really faults
        assert all(not r.fault_masked for r in trace.records)

    def test_masked_reference_does_mask(self, drive_system):
        runner = ClosedLoopRunner(drive_system.model, cache=BranchOutputCache())
        trace = runner.run(
            self.SPEC, build_policy("ecofusion_attention", drive_system), seed=0
        )
        assert any(r.fault_masked for r in trace.records)

    def test_windowed_matches_sequential_unmasked(self, drive_system):
        """The batched hot path must stay bit-identical for unmasked
        drive-gate policies too."""
        runner = ClosedLoopRunner(drive_system.model, cache=BranchOutputCache())
        policy = build_policy("ecofusion_drive_attention", drive_system)
        sequential = runner.run(self.SPEC, policy, seed=3, window=1)
        windowed = runner.run(self.SPEC, policy, seed=3, window=8)
        assert sequential.records_hex() == windowed.records_hex()


class TestSweepRoundTrip:
    def test_process_pool_shards_drive_policy(self, drive_system):
        """PolicySpec crosses the ProcessPoolExecutor boundary and the
        forked workers reuse the parent's installed drive gates; results
        must equal the in-process sweep exactly."""
        policies = (
            get_policy_spec("ecofusion_attention"),
            get_policy_spec("ecofusion_drive_attention"),
        )
        names = ["degraded_limp_home", "sensor_stress_test"]
        # drive_config=MICRO: the sweep must reuse the fixture's installed
        # gates (config-keyed), not retrain with the expensive defaults.
        kwargs = dict(
            scenarios=names, policies=policies, scale=0.08, window=8,
            drive_config=MICRO,
        )
        inprocess = run_sweep(drive_system, jobs=1, **kwargs)
        pooled = run_sweep(drive_system, jobs=2, **kwargs)

        def strip(results):
            return {
                s: {p: {k: v for k, v in e.items() if k != "wall_seconds"}
                    for p, e in per.items()}
                for s, per in results.items()
            }

        assert strip(inprocess) == strip(pooled)
        entry = inprocess["degraded_limp_home"]["ecofusion_drive_attention"]
        assert entry["policy_describe"]["fault_masking"] is False
