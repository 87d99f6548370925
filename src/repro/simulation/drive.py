"""Streaming drive synthesis: scenario spec -> lazy multi-sensor frames.

:class:`DriveSource` composes the temporal scene evolution of
``repro.datasets.sequences`` across segment boundaries: the scene
geometry persists when a new segment begins (the same cars are still
there when the car enters the fog bank) while the degradation profile,
ego speed and traffic density switch — exactly the situation the paper's
temporal-gating extension (Sec. 5.5.2) must handle.  Scheduled sensor
faults are applied per-modality on top of the rendered frames.

Frames are generated lazily, one per ``__iter__`` step, so arbitrarily
long drives stream in constant memory.
"""

from __future__ import annotations

import copy
import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..datasets.radiate import Sample
from ..datasets.scenes import Scene, generate_scene
from ..datasets.sensors import render_all_sensors
from ..datasets.sequences import advance_scene
from .scenario import ScenarioSpec, SensorFault

__all__ = ["DriveCursor", "DriveFrame", "DriveSource", "apply_fault"]


@dataclass
class DriveFrame:
    """One time step of a streamed drive."""

    time_index: int
    segment_index: int
    sample: Sample
    faults: tuple[SensorFault, ...] = ()
    # Name of the scenario that produced this frame — carried explicitly
    # so consumers (drive-gate training provenance) never parse uids.
    scenario: str = ""

    @property
    def context(self) -> str:
        return self.sample.context

    @property
    def faulted_sensors(self) -> tuple[str, ...]:
        down: set[str] = set()
        for fault in self.faults:
            down.update(fault.affected)
        return tuple(sorted(down))


def apply_fault(
    frame: np.ndarray,
    mode: str,
    rng: np.random.Generator,
    last_healthy: np.ndarray | None = None,
    *,
    progress: float = 0.0,
    severity: float = 1.0,
    delayed: np.ndarray | None = None,
) -> np.ndarray:
    """Return the faulted version of one sensor frame.

    Binary modes: ``blackout`` zeroes the frame, ``noise`` replaces it
    with uniform noise, ``stuck`` replays ``last_healthy``.  **Stuck
    first-frame semantics:** when no healthy capture exists yet —
    ``last_healthy is None``, i.e. the fault starts at frame 0 or the
    sensor has been degraded since the drive began — ``stuck`` falls
    back to blackout (an all-zero frame), never to the *faulted* capture
    it is freezing over.

    Graded modes take the extra keyword arguments: ``progress`` is the
    position inside the fault window in [0, 1) (see
    :meth:`SensorFault.progress_at`), ``severity`` the fault's amplitude
    knob, and ``delayed`` the buffered capture the ``latency`` mode
    should deliver (``None`` falls back to the ``stuck`` semantics —
    replay ``last_healthy`` or black out).

    * ``noise_burst`` blends noise over the healthy frame with a
      triangular amplitude envelope peaking at ``severity`` mid-window;
    * ``flicker`` blacks the frame out with probability ``severity``
      (one scalar draw per frame) and passes it through *bit-identical*
      otherwise;
    * ``drift`` adds a constant bias ramping linearly from 0 to
      ``severity`` across the window (RNG-free);
    * ``latency`` returns a copy of ``delayed``.
    """
    if mode == "blackout":
        return np.zeros_like(frame)
    if mode == "noise":
        return rng.random(frame.shape).astype(np.float32)
    if mode == "stuck":
        if last_healthy is None:
            return np.zeros_like(frame)
        return last_healthy.copy()
    if mode == "noise_burst":
        # Triangular envelope: 0 at the window edges, 1 at the midpoint.
        envelope = 1.0 - abs(2.0 * progress - 1.0)
        amplitude = np.float32(min(max(severity * envelope, 0.0), 1.0))
        noise = rng.random(frame.shape).astype(np.float32)
        return (1.0 - amplitude) * frame + amplitude * noise
    if mode == "flicker":
        if rng.random() < severity:
            return np.zeros_like(frame)
        return frame
    if mode == "drift":
        return frame + np.float32(severity * progress)
    if mode == "latency":
        if delayed is None:
            if last_healthy is None:
                return np.zeros_like(frame)
            return last_healthy.copy()
        return delayed.copy()
    raise ValueError(f"unknown fault mode '{mode}'")


class DriveSource:
    """Lazy, deterministic frame stream for one scenario.

    The same ``(spec, seed, image_size)`` triple always yields the same
    stream; the fault-noise generator is seeded separately from the scene
    generator so the *healthy* portion of a faulted drive is identical to
    the unfaulted drive frame-for-frame.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int = 0,
        image_size: int = 64,
    ) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.image_size = int(image_size)
        self._uid_prefix = (
            f"drive:{spec.name}:{spec.content_token()}:{self.seed}:{self.image_size}"
        )

    def __len__(self) -> int:
        return self.spec.num_frames

    def __iter__(self) -> "DriveCursor":
        return DriveCursor(self)

    def cursor(self) -> "DriveCursor":
        """Explicit spelling of ``iter(source)`` for checkpoint users."""
        return DriveCursor(self)

    def prefetch(self, window: int):
        """Yield the stream as consecutive lists of up to ``window`` frames.

        Windowing reuses the single lazy frame stream (one RNG state,
        one scene evolution) instead of duplicating the generator logic:
        the frames are the exact objects ``__iter__`` would have
        yielded, in the same order.
        """
        if window < 1:
            raise ValueError("prefetch window must be >= 1")
        iterator = iter(self)
        while True:
            chunk = list(itertools.islice(iterator, window))
            if not chunk:
                return
            yield chunk

    def sample(self, stride: int = 1, limit: int | None = None) -> list[DriveFrame]:
        """Deterministically subsample the stream for training pipelines.

        Keeps every ``stride``-th frame (starting at frame 0), at most
        ``limit`` of them.  The kept frames are the exact objects
        ``__iter__`` would have yielded — the full stream is advanced
        under the hood, so the scene evolution, fault-noise draws and
        uids are bit-identical to a plain iteration.  Drive-stream gate
        training (``repro.core.training_drive``) samples its faulted
        training frames through this.
        """
        if stride < 1:
            raise ValueError("sample stride must be >= 1")
        if limit is not None and limit < 1:
            raise ValueError("sample limit must be >= 1 (or None)")
        kept = itertools.islice(iter(self), 0, None, stride)
        if limit is not None:
            kept = itertools.islice(kept, limit)
        return list(kept)

    def materialize(self) -> list[DriveFrame]:
        """Render the whole drive eagerly (tests / small scenarios)."""
        return list(self)


class DriveCursor:
    """Stateful, checkpointable iterator over a :class:`DriveSource`.

    Yields the exact frames the old generator implementation yielded —
    same RNG draw sequence, same uids, same fault applications — but
    keeps every piece of evolution state (scene, RNG positions,
    last-healthy captures, latency buffers) in named fields so the
    position can be captured with :meth:`state_dict` and rebuilt with
    :meth:`from_state` for bit-identical resume.

    One ordering note: the generator advanced the scene *lazily*, on
    resume after each ``yield``; the cursor advances *eagerly*, at the
    end of each ``__next__``.  The RNG consumption order is identical
    (render t, advance t->t+1, render t+1, ...) — the only divergence is
    an unconditional advance after the final frame, whose draws no
    consumer can observe.
    """

    def __init__(self, source: DriveSource) -> None:
        self.source = source
        self._rng = np.random.default_rng((source.seed, 0x5CE7A810))
        self._fault_rng = np.random.default_rng((source.seed, 0xFA017))
        self._seq_token = int(self._rng.integers(0, 2**31 - 1))
        self._segment_index = 0
        self._profile = source.spec.segments[0].profile()
        self._scene = generate_scene(
            self._profile, self._rng, image_size=source.image_size
        )
        self._last_healthy: dict[str, np.ndarray] = {}
        # Rolling pre-fault capture buffers, only for sensors a "latency"
        # fault targets (zero cost for every other drive).  A buffer of
        # maxlen lag+1 holds captures t-lag..t once warm, so the oldest
        # entry is exactly the frame a lag-delayed pipeline delivers.
        self._history: dict[str, deque] = {
            s: deque(maxlen=lag + 1)
            for s, lag in self._max_lags(source.spec).items()
        }
        self._t = 0

    @staticmethod
    def _max_lags(spec: ScenarioSpec) -> dict[str, int]:
        max_lag: dict[str, int] = {}
        for f in spec.faults:
            if f.mode == "latency":
                for sensor in f.affected:
                    max_lag[sensor] = max(max_lag.get(sensor, 0), f.lag)
        return max_lag

    def __iter__(self) -> "DriveCursor":
        return self

    def __next__(self) -> DriveFrame:
        spec = self.source.spec
        t = self._t
        if t >= spec.num_frames:
            raise StopIteration
        new_index, new_segment = spec.segment_at(t)
        if new_index != self._segment_index:
            # Segment boundary: geometry persists, conditions change.
            self._segment_index = new_index
            self._profile = new_segment.profile()
            self._scene = Scene(
                context=self._profile.name,
                image_size=self._scene.image_size,
                objects=self._scene.objects,
            )
        segment = spec.segments[self._segment_index]
        profile = self._profile
        scene = self._scene
        sensors = render_all_sensors(scene, profile, self._rng)
        faults = spec.faults_at(t)
        faulted = {s for f in faults for s in f.affected}
        # Remember the newest *pre-fault* capture per sensor, so a
        # "stuck" sensor replays the frame from before it froze.
        for name, tensor in sensors.items():
            if name not in faulted:
                self._last_healthy[name] = tensor
        # Latency buffers always record the true (pre-fault) capture,
        # inside and outside the fault window alike.
        for name, buffer in self._history.items():
            buffer.append(sensors[name])
        for fault in faults:
            progress = fault.progress_at(t)
            for sensor in fault.affected:
                delayed = None
                if fault.mode == "latency":
                    buffer = self._history[sensor]
                    delayed = buffer[max(len(buffer) - 1 - fault.lag, 0)]
                sensors[sensor] = apply_fault(
                    sensors[sensor],
                    fault.mode,
                    self._fault_rng,
                    self._last_healthy.get(sensor),
                    progress=progress,
                    severity=fault.severity,
                    delayed=delayed,
                )
        sample = Sample(
            sensors=sensors,
            boxes=scene.boxes,
            labels=scene.labels,
            context=profile.name,
            sample_id=t,
            scene=scene,
            uid=f"{self.source._uid_prefix}:{self._seq_token}:{t}",
        )
        frame = DriveFrame(
            time_index=t,
            segment_index=self._segment_index,
            sample=sample,
            faults=faults,
            scenario=spec.name,
        )
        self._scene = advance_scene(scene, profile, self._rng, segment.ego_speed)
        self._t = t + 1
        return frame

    @property
    def position(self) -> int:
        """Index of the next frame ``__next__`` will produce."""
        return self._t

    def state_dict(self) -> dict:
        """Snapshot everything needed to resume at :attr:`position`.

        The profile is *not* stored — ``SegmentSpec.profile()`` is pure,
        so it is recreated from the spec on restore.  Arrays are copied
        so later iteration cannot mutate a taken snapshot.
        """
        return {
            "t": self._t,
            "segment_index": self._segment_index,
            "seq_token": self._seq_token,
            "rng": copy.deepcopy(self._rng.bit_generator.state),
            "fault_rng": copy.deepcopy(self._fault_rng.bit_generator.state),
            "scene": copy.deepcopy(self._scene),
            "last_healthy": {k: v.copy() for k, v in self._last_healthy.items()},
            "history": {
                k: [np.array(a, copy=True) for a in buf]
                for k, buf in self._history.items()
            },
        }

    @classmethod
    def from_state(cls, source: DriveSource, state: dict) -> "DriveCursor":
        cursor = cls.__new__(cls)
        cursor.source = source
        cursor._rng = np.random.default_rng()
        cursor._rng.bit_generator.state = copy.deepcopy(state["rng"])
        cursor._fault_rng = np.random.default_rng()
        cursor._fault_rng.bit_generator.state = copy.deepcopy(state["fault_rng"])
        cursor._seq_token = int(state["seq_token"])
        cursor._segment_index = int(state["segment_index"])
        cursor._profile = source.spec.segments[cursor._segment_index].profile()
        cursor._scene = copy.deepcopy(state["scene"])
        cursor._last_healthy = {
            k: v.copy() for k, v in state["last_healthy"].items()
        }
        cursor._history = {
            s: deque(maxlen=lag + 1)
            for s, lag in cls._max_lags(source.spec).items()
        }
        for name, entries in state["history"].items():
            cursor._history[name].extend(
                np.array(a, copy=True) for a in entries
            )
        cursor._t = int(state["t"])
        return cursor
