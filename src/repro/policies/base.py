"""The perception-policy interface.

EcoFusion's contribution is a *controller*: something that watches the
world (frame features, predicted losses, sensor health, battery state)
and picks the fusion configuration to execute next.  This module defines
that seam so controllers are first-class objects, independent of the
closed-loop runner that hosts them:

* :class:`PolicyObservation` — everything a policy may look at for one
  fusion cycle.  The runner fills in only what the policy's gate needs
  (``predicted_losses`` for learned gates, ``direct_selection`` for
  bypass gates, nothing for static pipelines).
* :class:`PolicyDecision` — the chosen :class:`ModelConfiguration` plus
  diagnostics (whether fault masking constrained the choice, and the
  effective ``lambda_E`` used, which SoC-aware policies vary per frame).
* :class:`PerceptionPolicy` — the ABC: ``decide(observation) ->
  decision`` with ``reset()`` per drive and ``describe()`` for
  self-describing benchmark output.

Policies are bound to a model library (:meth:`PerceptionPolicy.bind`)
once per drive, never to a model instance: they see configuration names
and the offline energy table, not stems or branches, which is what keeps
the gate/branch substrate policy-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..core.config import ModelConfiguration
from ..core.gating.base import Gate

__all__ = [
    "MASKED_LOSS",
    "PolicyBinding",
    "PolicyObservation",
    "PolicyDecision",
    "PerceptionPolicy",
]

# Loss surrogate assigned to configurations that depend on a failed
# sensor; large enough that the candidate filter never keeps them while
# any healthy configuration exists.
MASKED_LOSS = 1.0e9


@dataclass(frozen=True)
class PolicyBinding:
    """The slice of a trained system a policy is allowed to see.

    ``energies`` is the offline per-configuration energy table ``E(phi)``
    aligned with ``library`` order (the quantity Eq. 8 trades off against
    predicted loss).
    """

    library: tuple[ModelConfiguration, ...]
    energies: np.ndarray

    def __post_init__(self) -> None:
        if len(self.library) != self.energies.shape[0]:
            raise ValueError(
                f"library size {len(self.library)} != energy table "
                f"{self.energies.shape[0]}"
            )
        object.__setattr__(
            self, "_index", {c.name: i for i, c in enumerate(self.library)}
        )

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(
                f"no configuration named '{name}' in bound library"
            ) from None

    def config_named(self, name: str) -> ModelConfiguration:
        return self.library[self.index_of(name)]


@dataclass(frozen=True)
class PolicyObservation:
    """Everything one fusion cycle exposes to the controller.

    Attributes
    ----------
    time_index:
        Frame index within the drive.
    context:
        Driving-context label of the frame.
    soc:
        Battery state of charge *before* this cycle's drain, in [0, 1].
    faulted_sensors:
        Physical sensor streams the health monitor reports degraded.
    healthy_mask:
        Per-configuration boolean mask (library order): True where a
        configuration touches no failed sensor.  ``None`` means fault
        masking is inactive this frame (no faults, or disabled).
    predicted_losses:
        ``(|Phi|,)`` gate-predicted fusion losses (learned gates only).
    direct_selection:
        Configuration name chosen by a bypass gate (knowledge gating),
        before fault limp-home is applied.
    features:
        Per-sensor stem feature tensors, when the policy's gate needed
        them this frame (read-only, shared with the runner's execution
        path).  The tensors cover every item of the drive step that
        shares this policy's base gate; custom feature-hungry policies
        should index rows by position among those items.
    """

    time_index: int
    context: str
    soc: float
    faulted_sensors: tuple[str, ...] = ()
    healthy_mask: np.ndarray | None = None
    predicted_losses: np.ndarray | None = None
    direct_selection: str | None = None
    features: dict | None = None


@dataclass(frozen=True)
class PolicyDecision:
    """The controller's output for one fusion cycle."""

    config: ModelConfiguration
    fault_masked: bool = False
    lambda_e: float | None = None
    diagnostics: dict = field(default_factory=dict)


class PerceptionPolicy(ABC):
    """Strategy that selects the fusion configuration each cycle.

    Lifecycle: the runner calls :meth:`bind` (model library + energy
    table) and :meth:`reset` at the start of every drive, then
    :meth:`decide` once per frame.  Policies may keep per-drive state
    (hysteresis incumbents, temporal smoothing) between ``decide`` calls;
    ``reset`` must clear all of it.

    Attributes
    ----------
    name:
        Identifier used in traces and benchmark tables.
    gate:
        The gate the runner must evaluate for this policy, or ``None``
        for gate-free policies (static pipelines).  The runner feeds
        bypass gates' selections through ``direct_selection`` and learned
        gates' loss estimates through ``predicted_losses``.
    powers_all_stems:
        True when the policy keeps every sensor stem alive (adaptive
        inference feeds the gate all stems); False when only the chosen
        configuration's own sensors are powered (static pipelines).  The
        runner's cost model prices stems accordingly.
    use_fault_masking:
        True (default) when the policy wants the runner's health monitor
        to supply per-configuration fault masks (``healthy_mask``), the
        limp-home safety net for gates trained on healthy i.i.d. frames.
        Policies whose gate learned sensor dropout from drive streams
        (``repro.core.training_drive``) set this False and run unmasked:
        their observations carry ``healthy_mask=None`` even while
        sensors are down, so avoidance of dead-sensor configurations
        must come from the gate's own loss predictions.
    """

    name: str = "policy"
    powers_all_stems: bool = True
    use_fault_masking: bool = True

    def __init__(self) -> None:
        self._binding: PolicyBinding | None = None

    # ------------------------------------------------------------------
    @property
    def gate(self) -> Gate | None:
        """Gate the runner must evaluate per frame (None = gate-free)."""
        return None

    @property
    def runtime_gate(self) -> Gate | None:
        """The gate instance to evaluate *this drive* (set by reset).

        Adaptive policies may wrap their base gate per drive (temporal
        smoothing); the default returns :attr:`gate` unchanged.
        """
        return self.gate

    @property
    def binding(self) -> PolicyBinding:
        if self._binding is None:
            raise RuntimeError(f"policy '{self.name}' is not bound to a library")
        return self._binding

    def bind(self, library, energies: np.ndarray) -> None:
        """Attach the configuration library and offline energy table."""
        self._binding = PolicyBinding(
            library=tuple(library), energies=np.asarray(energies, dtype=np.float64)
        )

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear per-drive state (called by the runner before each run)."""

    def state_dict(self) -> dict:
        """Snapshot mutable per-drive state for checkpoint/resume.

        Stateless policies (the static baselines) return ``{}``.
        Stateful policies override both hooks; ``load_state_dict`` is
        always called *after* ``bind()`` + ``reset()``, so overrides can
        assume freshly-built per-drive machinery to load into.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""

    @abstractmethod
    def decide(self, observation: PolicyObservation) -> PolicyDecision:
        """Select the configuration to execute for ``observation``."""

    def describe(self) -> dict:
        """JSON-ready self-description (carried into benchmark output)."""
        return {"name": self.name, "kind": type(self).__name__}

    # ------------------------------------------------------------------
    def record_decision(self, decision: PolicyDecision, metrics) -> None:
        """Publish one decision to a metrics registry (telemetry seam).

        The runner calls this once per frame **only when metrics are
        enabled**, after :meth:`decide`; the default records the
        configuration-decision distribution and fault-masking counter.
        Subclasses extend it with policy-specific signals (effective
        ``lambda_E``, schedule position) and must call ``super()``.
        Implementations must only *read* — never influence the next
        decision — so telemetry cannot perturb a drive.
        """
        metrics.counter(
            "policy.decisions", policy=self.name, config=decision.config.name
        ).inc()
        if decision.fault_masked:
            metrics.counter("policy.fault_masked", policy=self.name).inc()
