"""The EcoFusion model: Algorithm 1 of the paper.

Per input frame:

1. every modality stem runs (lines 2-3), producing features ``F``;
2. the gate estimates ``L_f(phi)`` for all configurations (line 4);
3. ``rho`` selects candidates within ``gamma`` of the best (line 5);
4. the joint optimization picks ``phi*`` (lines 6-8);
5. only the branches of ``phi*`` execute (lines 9-10);
6. the fusion block late-fuses their detections (line 11).

The model also exposes :meth:`run_config` for executing any fixed
configuration — that is exactly what the paper's None / Early / Late
baselines are (see ``repro.baselines``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.radiate import Sample
from ..datasets.sensors import SENSORS
from ..datasets.transforms import normalize_sample
from ..fusion.late import BranchOutput, FusionBlock
from ..nn import Tensor, batch_invariant, engine, no_grad
from ..perception.detections import Detections
from ..perception.detector import BranchDetector
from ..perception.backbone import StemBlock
from .config import BRANCHES, ModelConfiguration
from .gating.base import Gate
from .optimization import SelectionResult, select_configuration

__all__ = ["EcoFusionModel", "EcoFusionResult", "BranchOutputCache"]


@dataclass
class EcoFusionResult:
    """Outcome of one adaptive inference."""

    sample_id: int
    context: str
    detections: Detections
    config_name: str
    selection: SelectionResult | None
    latency_ms: float
    energy_joules: float
    static_energy_joules: float


class BranchOutputCache:
    """Memoized per-(sample, branch) detections.

    Evaluating many configurations / gates / lambda values over the same
    split re-executes identical branch inferences; this cache makes every
    evaluation after the first nearly free, without changing any result
    (branches are deterministic in eval mode).  Keys use the sample's
    globally-unique ``uid``, so samples from different datasets (e.g. a
    held-out scenario pool) can never alias each other.
    """

    def __init__(self, memoize_outputs: bool = True) -> None:
        self._store: dict[tuple[str, str], Detections] = {}
        self._fused: dict[tuple[str, str], Detections] = {}
        self._loss: dict[tuple[str, str], float] = {}
        self._stems: dict[tuple[str, str], np.ndarray] = {}
        # Fused-output/loss memoization is part of the sweep engine's
        # batched hot path; disable it to reproduce the original
        # branch-level-only cache (the benchmark's sequential baseline).
        self.memoize_outputs = bool(memoize_outputs)
        # Plain-int hit/miss counts per memo kind; the telemetry layer
        # reads deltas of stats().  Disabled memo kinds count nothing.
        self._stats = {
            "branch": [0, 0], "fused": [0, 0], "loss": [0, 0], "stem": [0, 0],
        }

    def get(self, sample: Sample, branch: str) -> Detections | None:
        hit = self._store.get((sample.uid, branch))
        self._stats["branch"][0 if hit is not None else 1] += 1
        return hit

    def put(self, sample: Sample, branch: str, detections: Detections) -> None:
        self._store[(sample.uid, branch)] = detections

    def get_loss(self, sample: Sample, config_name: str) -> float | None:
        """Memoized fusion loss for one (sample, configuration)."""
        if not self.memoize_outputs:
            return None
        hit = self._loss.get((sample.uid, config_name))
        self._stats["loss"][0 if hit is not None else 1] += 1
        return hit

    def put_loss(self, sample: Sample, config_name: str, loss: float) -> None:
        if self.memoize_outputs:
            self._loss[(sample.uid, config_name)] = loss

    def get_stem(self, sample: Sample, sensor: str) -> np.ndarray | None:
        """Memoized stem-feature row for one (sample, sensor)."""
        if not self.memoize_outputs:
            return None
        hit = self._stems.get((sample.uid, sensor))
        self._stats["stem"][0 if hit is not None else 1] += 1
        return hit

    def put_stem(self, sample: Sample, sensor: str, row: np.ndarray) -> None:
        if self.memoize_outputs:
            self._stems[(sample.uid, sensor)] = row

    def get_fused(self, sample: Sample, config_name: str) -> Detections | None:
        """Memoized late-fusion output for one (sample, configuration).

        Fusion is deterministic given the branch outputs, so sweeping
        many policies over the same drive re-derives identical fused
        detections whenever two policies pick the same configuration on
        the same frame; this makes the repeat free.
        """
        if not self.memoize_outputs:
            return None
        hit = self._fused.get((sample.uid, config_name))
        self._stats["fused"][0 if hit is not None else 1] += 1
        return hit

    def put_fused(
        self, sample: Sample, config_name: str, detections: Detections
    ) -> None:
        if self.memoize_outputs:
            self._fused[(sample.uid, config_name)] = detections

    def stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counts per memo kind (branch/fused/loss/stem)."""
        return {
            kind: {"hits": cell[0], "misses": cell[1]}
            for kind, cell in self._stats.items()
        }

    def __len__(self) -> int:
        return len(self._store)

    def total_entries(self) -> int:
        """Memoized entries across all four stores (trim accounting)."""
        return (
            len(self._store) + len(self._fused)
            + len(self._loss) + len(self._stems)
        )

    def trim(self, max_entries: int) -> bool:
        """Drop every memoized output once past ``max_entries``.

        Long-lived holders (the drive service) bound memory with this:
        keys are per-sample uids, so entries for finished streams never
        hit again and simply accumulate.  Dropping is always safe —
        cached and fresh outputs are bit-identical by contract — so a
        full clear costs only recomputation, never correctness.  Returns
        True when a trim happened; hit/miss stats are preserved.
        """
        if max_entries <= 0 or self.total_entries() <= max_entries:
            return False
        self._store.clear()
        self._fused.clear()
        self._loss.clear()
        self._stems.clear()
        return True


@dataclass
class EcoFusionModel:
    """Stems + branches + fusion block + cost model (gate supplied per call)."""

    stems: dict[str, StemBlock]
    branches: dict[str, BranchDetector]
    library: list[ModelConfiguration]
    costs: "SystemCosts"
    fusion_block: FusionBlock = field(default_factory=FusionBlock)
    image_size: int = 64

    def __post_init__(self) -> None:
        missing = [b for c in self.library for b in c.branches if b not in self.branches]
        if missing:
            raise ValueError(f"library references branches without models: {sorted(set(missing))}")
        self._energy_vector = np.array(
            [self.costs.config_costs[c.name].energy_joules for c in self.library]
        )

    # ------------------------------------------------------------------
    @property
    def config_names(self) -> list[str]:
        return [c.name for c in self.library]

    def config_named(self, name: str) -> ModelConfiguration:
        from .config import config_by_name

        return config_by_name(self.library, name)

    def energies(self) -> np.ndarray:
        """E(phi) aligned with the library order (Joules)."""
        return self._energy_vector.copy()

    def set_eval(self) -> None:
        # Walking every module tree per call is measurable on the
        # per-frame hot path; skip subtrees whose root is already in
        # eval mode (train()/eval() always toggle whole subtrees).
        for stem in self.stems.values():
            if stem.training:
                stem.eval()
        for branch in self.branches.values():
            if branch.training:
                branch.eval()

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def stem_features(
        self, samples: list[Sample], sensors: tuple[str, ...] | None = None
    ) -> dict[str, Tensor]:
        """Stem outputs per sensor for a batch of samples (eval mode)."""
        sensors = sensors or SENSORS
        self.set_eval()
        normalized = [normalize_sample(s) for s in samples]
        features: dict[str, Tensor] = {}
        with no_grad():
            for sensor in sensors:
                batch = np.stack([n[sensor] for n in normalized]).astype(np.float32)
                stem = self.stems[sensor]
                # copy=True: callers cache row slices of stem outputs
                # across windows, so they must not alias engine buffers.
                compiled = engine.maybe_run(
                    "stem", stem, stem, (batch,), copy=True
                )
                features[sensor] = (
                    stem(Tensor(batch)) if compiled is None
                    else Tensor(compiled[0])
                )
        return features

    def stem_features_cached(
        self,
        samples: list[Sample],
        sensors: tuple[str, ...] | None,
        cache: BranchOutputCache | None,
    ) -> dict[str, Tensor]:
        """Stem outputs with per-(sample, sensor) memoization.

        Stems are policy-independent, so a sweep revisiting the same
        frames under several policies recomputes identical rows; the
        cache makes the repeats free.  Rows are stored from (and
        assembled back into) batch-invariant computations, so cached
        and fresh rows are interchangeable bit for bit.
        """
        if cache is None or not cache.memoize_outputs:
            return self.stem_features(samples, sensors)
        sensors = sensors or SENSORS
        rows: dict[str, list[np.ndarray | None]] = {
            sensor: [cache.get_stem(s, sensor) for s in samples]
            for sensor in sensors
        }
        # Group misses by which sensors each sample actually lacks, so a
        # sample cached for some sensors never re-runs those stems.
        need: dict[tuple[str, ...], list[int]] = {}
        for i in range(len(samples)):
            missed = tuple(s for s in sensors if rows[s][i] is None)
            if missed:
                need.setdefault(missed, []).append(i)
        for missed, indices in need.items():
            computed = self.stem_features([samples[i] for i in indices], missed)
            for sensor in missed:
                data = computed[sensor].data
                for j, i in enumerate(indices):
                    row = data[j : j + 1]
                    rows[sensor][i] = row
                    cache.put_stem(samples[i], sensor, row)
        return {
            sensor: Tensor(np.concatenate(rows[sensor], axis=0))
            for sensor in sensors
        }

    def gate_features(self, features: dict[str, Tensor]) -> Tensor:
        """Channel-concatenation of all stem outputs, in SENSORS order."""
        return Tensor.concatenate([features[s] for s in SENSORS], axis=1)

    # ------------------------------------------------------------------
    # Branch / configuration execution
    # ------------------------------------------------------------------
    def run_branch(
        self, branch_name: str, features: dict[str, Tensor]
    ) -> list[Detections]:
        """Execute one branch on precomputed stem features."""
        from ..fusion.early import concat_stem_features

        spec = BRANCHES[branch_name]
        stem_input = concat_stem_features(features, spec.sensors)
        return self.branches[branch_name].detect(stem_input)

    def branch_outputs(
        self,
        samples: list[Sample],
        branch_names: tuple[str, ...],
        features: dict[str, Tensor] | None = None,
        cache: BranchOutputCache | None = None,
    ) -> dict[str, list[Detections]]:
        """Detections of each requested branch for every sample."""
        results: dict[str, list[Detections]] = {}
        pending = list(branch_names)
        if cache is not None:
            for name in list(pending):
                hits = [cache.get(s, name) for s in samples]
                if all(h is not None for h in hits):
                    results[name] = hits  # type: ignore[assignment]
                    pending.remove(name)
        if pending:
            if features is None:
                needed = tuple(
                    sorted({s for b in pending for s in BRANCHES[b].sensors})
                )
                features = self.stem_features(samples, needed)
            for name in pending:
                dets = self.run_branch(name, features)
                results[name] = dets
                if cache is not None:
                    for sample, det in zip(samples, dets):
                        cache.put(sample, name, det)
        return results

    def branch_outputs_windowed(
        self,
        samples: list[Sample],
        branch_index: dict[str, list[int]],
        features: dict[str, Tensor] | None = None,
        cache: BranchOutputCache | None = None,
    ) -> dict[str, dict[int, Detections]]:
        """Batched branch execution over a lookahead window.

        ``branch_index`` maps each branch name to the positions (into
        ``samples``) whose chosen configuration needs it; each branch
        then runs once on the gathered sub-batch instead of per frame.
        Per-row results are bit-identical to frame-by-frame execution:
        convolutions run under :class:`~repro.nn.functional.batch_invariant`
        (one GEMM per sample) and the RPN/ROI stages operate per image,
        so the batched runner reproduces sequential traces exactly
        (pinned by the equivalence tests).  Cache hits are resolved per
        sample, and only the misses are gathered and executed.
        """
        with batch_invariant():
            return self._branch_outputs_windowed(
                samples, branch_index, features, cache
            )

    def _branch_outputs_windowed(
        self,
        samples: list[Sample],
        branch_index: dict[str, list[int]],
        features: dict[str, Tensor] | None = None,
        cache: BranchOutputCache | None = None,
    ) -> dict[str, dict[int, Detections]]:
        results: dict[str, dict[int, Detections]] = {b: {} for b in branch_index}
        missing: dict[str, list[int]] = {}
        for branch, positions in branch_index.items():
            for i in positions:
                hit = cache.get(samples[i], branch) if cache is not None else None
                if hit is not None:
                    results[branch][i] = hit
                else:
                    missing.setdefault(branch, []).append(i)
        if not missing:
            return results

        if features is None:
            # Stems are per-sensor and per-row independent: compute them
            # once for the union of missed frames and sensors.
            rows = sorted({i for positions in missing.values() for i in positions})
            sensors = tuple(
                sorted({s for b in missing for s in BRANCHES[b].sensors})
            )
            features = self.stem_features_cached(
                [samples[i] for i in rows], sensors, cache
            )
            row_of = {i: r for r, i in enumerate(rows)}
            gather = lambda positions: np.array(  # noqa: E731
                [row_of[i] for i in positions]
            )
        else:
            gather = lambda positions: np.array(positions)  # noqa: E731

        for branch, positions in missing.items():
            index = gather(positions)
            sub = {s: features[s][index] for s in BRANCHES[branch].sensors}
            detections = self.run_branch(branch, sub)
            for i, det in zip(positions, detections):
                results[branch][i] = det
                if cache is not None:
                    cache.put(samples[i], branch, det)
        return results

    def fuse_config(
        self, config: ModelConfiguration, per_branch: dict[str, list[Detections]], index: int
    ) -> Detections:
        """Late-fuse one sample's branch outputs for ``config``."""
        return self.fuse_single(
            config, {b: per_branch[b][index] for b in config.branches}
        )

    def fuse_single(
        self, config: ModelConfiguration, det_by_branch: dict[str, Detections]
    ) -> Detections:
        """Late-fuse one frame given its per-branch detections."""
        outputs = [
            BranchOutput(
                branch_name=b,
                detections=det_by_branch[b],
                frame_sensor=BRANCHES[b].frame_sensor,
            )
            for b in config.branches
        ]
        return self.fusion_block.fuse(outputs)

    def run_config(
        self,
        config: ModelConfiguration,
        samples: list[Sample],
        cache: BranchOutputCache | None = None,
    ) -> list[Detections]:
        """Execute a fixed configuration as a static pipeline."""
        per_branch = self.branch_outputs(samples, config.branches, cache=cache)
        return [self.fuse_config(config, per_branch, i) for i in range(len(samples))]

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def infer(
        self,
        samples: list[Sample],
        gate: Gate,
        lambda_e: float = 0.01,
        gamma: float = 0.5,
        cache: BranchOutputCache | None = None,
        interpretation: str = "intended",
    ) -> list[EcoFusionResult]:
        """Adaptive inference over a batch of samples (Algorithm 1)."""
        features = self.stem_features(samples)  # lines 2-3: all stems run
        contexts = [s.context for s in samples]
        sample_ids = [s.sample_id for s in samples]

        chosen_configs: list[ModelConfiguration] = []
        selections: list[SelectionResult | None] = []
        if gate.bypasses_optimization:
            names = gate.select_direct(contexts)
            chosen_configs = [self.config_named(n) for n in names]
            selections = [None] * len(samples)
        else:
            gate_input = self.gate_features(features)
            predicted = gate.predict_losses(gate_input, contexts, sample_ids)  # line 4
            for i in range(len(samples)):
                selection = select_configuration(  # lines 5-8
                    predicted[i], self._energy_vector, lambda_e, gamma, interpretation
                )
                selections.append(selection)
                chosen_configs.append(self.library[selection.index])

        # Lines 9-10: execute each selected branch once per needing sample.
        needed_branches = tuple(sorted({b for c in chosen_configs for b in c.branches}))
        per_branch = self.branch_outputs(samples, needed_branches, features, cache)

        results: list[EcoFusionResult] = []
        for i, (sample, config) in enumerate(zip(samples, chosen_configs)):
            fused = self.fuse_config(config, per_branch, i)  # line 11
            latency, energy = self.costs.ecofusion_runtime(config)
            results.append(
                EcoFusionResult(
                    sample_id=sample.sample_id,
                    context=sample.context,
                    detections=fused,
                    config_name=config.name,
                    selection=selections[i],
                    latency_ms=latency,
                    energy_joules=energy,
                    static_energy_joules=self.costs.config_costs[config.name].energy_joules,
                )
            )
        return results
