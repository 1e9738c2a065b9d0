"""Seeded fault injection: wrap any detector in a failure model.

The paper treats detectors as black boxes; production serving treats them
as black boxes *that fail*.  :class:`FaultyDetector` wraps any model with
``.detect(frame)`` and injects four failure modes, all drawn from
:func:`repro.utils.rng.derive_rng` so that a faulty run is exactly as
reproducible as a healthy one:

* **transient exceptions** — the call raises
  :class:`TransientDetectorError` with probability ``transient_rate`` per
  attempt; a retry (a fresh attempt) redraws and may succeed;
* **sustained outages** — every call raises :class:`DetectorOutageError`
  while the frame index lies in ``outage`` (a half-open range), modeling a
  crashed worker or an unreachable model server;
* **latency spikes and hangs** — the reported simulated latency is
  multiplied by ``latency_multiplier`` (spike) or replaced by
  :data:`HANG_MS` (hang), which trips the resilience layer's
  simulated-latency timeout;
* **degraded outputs** — detections are replaced by garbage boxes
  (position, size, label and confidence all random; a Poisson count of
  mean :data:`DEGRADED_BOX_MEAN`), modeling silent corruption such as a
  stale checkpoint or a broken preprocessing stage.

Determinism: the noise stream is keyed by
``(seed, detector, frame, attempt)``.  The attempt counter advances per
``detect`` call on the same frame, so retries see *fresh* draws (that is
what makes retrying transient faults meaningful) while the sequence of
draws for any (frame, attempt) pair is independent of global call order.
Attempt counters live behind a lock, so a caller that shares one
detector between threads stays correct; the counters are an LRU bounded
by :data:`ATTEMPT_WINDOW` so unbounded streams cannot grow memory
(RPR003).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.simulation.video import Frame
from repro.simulation.world import OBJECT_CLASSES
from repro.utils.rng import derive_rng, derive_seed

__all__ = [
    "DetectorFaultError",
    "TransientDetectorError",
    "DetectorOutageError",
    "FaultSpec",
    "FaultyDetector",
    "ATTEMPT_WINDOW",
    "DEGRADED_BOX_MEAN",
    "HANG_MS",
    "FAULT_PROFILE_NAMES",
    "fault_profile_specs",
    "apply_fault_profile",
]

_GARBAGE_LABELS: tuple[str, ...] = tuple(spec.label for spec in OBJECT_CLASSES)

#: LRU bound on the per-frame attempt counters a :class:`FaultyDetector`
#: remembers.
ATTEMPT_WINDOW = 4096

#: The simulated latency of a hang: effectively a call that never
#: returns.
HANG_MS = 1_000_000.0

#: Mean (Poisson) number of garbage boxes emitted by a degraded output.
DEGRADED_BOX_MEAN = 6.0


class DetectorFaultError(RuntimeError):
    """Base class of injected detector failures."""


class TransientDetectorError(DetectorFaultError):
    """A one-off failure (OOM, dropped RPC, CUDA hiccup); retryable."""


class DetectorOutageError(DetectorFaultError):
    """A sustained outage (crashed worker, dead endpoint); retries fail
    for as long as the outage lasts."""


@dataclass(frozen=True)
class FaultSpec:
    """Per-detector failure model parameters (all disabled by default).

    Attributes:
        transient_rate: Probability per attempt of raising a
            :class:`TransientDetectorError`.
        outage: Optional half-open frame-index range ``[start, stop)``
            during which every call raises :class:`DetectorOutageError`.
        latency_spike_rate: Probability per attempt of multiplying the
            reported simulated latency by ``latency_multiplier``.
        latency_multiplier: Latency factor of a spike (finite, > 1).
        hang_rate: Probability per attempt of reporting :data:`HANG_MS`
            as the latency — effectively a call that never returns; pair
            with a resilience-layer timeout.
        degraded_rate: Probability per attempt of replacing the output's
            detections with garbage boxes.
    """

    transient_rate: float = 0.0
    outage: tuple[int, int] | None = None
    latency_spike_rate: float = 0.0
    latency_multiplier: float = 20.0
    hang_rate: float = 0.0
    degraded_rate: float = 0.0

    def __post_init__(self) -> None:
        for rate_name in (
            "transient_rate",
            "latency_spike_rate",
            "hang_rate",
            "degraded_rate",
        ):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if not 1.0 < self.latency_multiplier < math.inf:
            raise ValueError(
                f"latency_multiplier must be finite and > 1, "
                f"got {self.latency_multiplier!r}"
            )
        if self.outage is not None:
            start, stop = self.outage
            if start < 0 or stop < start:
                raise ValueError(
                    f"outage must be a valid [start, stop) range, got {self.outage}"
                )

    @property
    def enabled(self) -> bool:
        """Whether any failure mode is active."""
        return (
            self.transient_rate > 0
            or self.outage is not None
            or self.latency_spike_rate > 0
            or self.hang_rate > 0
            or self.degraded_rate > 0
        )

    def in_outage(self, frame_index: int) -> bool:
        """Whether ``frame_index`` falls inside the outage range."""
        if self.outage is None:
            return False
        start, stop = self.outage
        return start <= frame_index < stop


class FaultyDetector:
    """A detector wrapped in a seeded failure model.

    Exposes the same surface as the wrapped model (``name``,
    ``expected_time_ms``, ``detect``), so it drops into a
    :class:`~repro.core.environment.DetectionEnvironment` pool unchanged.

    Args:
        inner: Any model with ``.detect(frame)`` (detector or reference).
        spec: The failure model.
        seed: Root seed of the fault stream (independent of the wrapped
            model's own noise stream).
    """

    def __init__(self, inner: Any, spec: FaultSpec, seed: int = 0) -> None:
        self.inner = inner
        self.spec = spec
        self.seed = seed
        self._lock = threading.Lock()
        self._attempts: OrderedDict[object, int] = OrderedDict()

    @property
    def name(self) -> str:
        return str(self.inner.name)

    @property
    def expected_time_ms(self) -> float:
        return float(self.inner.expected_time_ms)

    def _next_attempt(self, frame_key: object) -> int:
        """Advance and return the 1-based attempt number for a frame."""
        with self._lock:
            attempt = self._attempts.get(frame_key, 0) + 1
            self._attempts[frame_key] = attempt
            self._attempts.move_to_end(frame_key)
            while len(self._attempts) > ATTEMPT_WINDOW:
                self._attempts.popitem(last=False)
            return attempt

    def detect(self, frame: Frame) -> Any:
        """Run the wrapped model through the failure model.

        Deterministic per ``(seed, detector, frame, attempt)``; draws are
        taken in a fixed order (transient, degraded, hang, spike) so the
        stream never depends on which modes are enabled elsewhere.
        """
        spec = self.spec
        if spec.in_outage(frame.index):
            raise DetectorOutageError(
                f"{self.name}: outage at frame {frame.index} "
                f"(range {spec.outage})"
            )
        attempt = self._next_attempt(frame.key)
        rng = derive_rng(self.seed, "fault", self.name, frame.key, attempt)
        transient_draw = float(rng.random())
        degraded_draw = float(rng.random())
        hang_draw = float(rng.random())
        spike_draw = float(rng.random())
        if transient_draw < spec.transient_rate:
            raise TransientDetectorError(
                f"{self.name}: transient failure on frame {frame.index} "
                f"(attempt {attempt})"
            )
        output = self.inner.detect(frame)
        if degraded_draw < spec.degraded_rate:
            output = self._degrade(output, frame, rng)
        latency = float(output.inference_time_ms)
        if hang_draw < spec.hang_rate:
            latency = HANG_MS
        elif spike_draw < spec.latency_spike_rate:
            latency = latency * spec.latency_multiplier
        if latency != float(output.inference_time_ms):
            output = replace(output, inference_time_ms=latency)
        return output

    def _degrade(
        self, output: Any, frame: Frame, rng: np.random.Generator
    ) -> Any:
        """Replace the output's detections with garbage boxes."""
        count = int(rng.poisson(DEGRADED_BOX_MEAN))
        garbage: list[Detection] = []
        for _ in range(count):
            width = float(rng.uniform(10.0, 0.4 * frame.width))
            height = float(rng.uniform(10.0, 0.4 * frame.height))
            cx = float(rng.uniform(0.0, frame.width))
            cy = float(rng.uniform(0.0, frame.height))
            box = BBox.from_center(cx, cy, width, height).clip(
                frame.width, frame.height
            )
            if box.area < 4.0:
                continue
            garbage.append(
                Detection(
                    box=box,
                    confidence=float(rng.uniform(0.3, 0.95)),
                    label=str(rng.choice(_GARBAGE_LABELS)),
                    source=self.name,
                )
            )
        detections = FrameDetections(
            frame.index, tuple(garbage), source=self.name
        )
        return replace(output, detections=detections)

    def __repr__(self) -> str:
        return f"FaultyDetector(inner={self.inner!r}, spec={self.spec!r})"


# ---- named profiles -----------------------------------------------------

#: A profile maps detector *positions* in the pool to fault specs;
#: ``"all"`` applies one spec to every detector.
_PROFILES: dict[str, dict[int | str, FaultSpec]] = {
    "none": {},
    # Every detector occasionally drops a call — the background noise of a
    # busy inference fleet; retries absorb almost all of it.
    "transient": {"all": FaultSpec(transient_rate=0.08)},
    # The first detector is unreliable: frequent transients plus latency
    # spikes.  Exercises retry + timeout without long outages.
    "flaky-first": {
        0: FaultSpec(
            transient_rate=0.35,
            latency_spike_rate=0.15,
            latency_multiplier=30.0,
        )
    },
    # The first detector goes down hard at frame 10 and never comes back —
    # the circuit-breaker / arm-masking stress test.
    "outage-first": {0: FaultSpec(outage=(10, 1_000_000_000))},
    # The first detector silently returns garbage boxes half the time;
    # no exceptions, so only score-driven selection can route around it.
    "degraded-first": {0: FaultSpec(degraded_rate=0.5)},
    # A little of everything on every detector.
    "chaos": {
        "all": FaultSpec(
            transient_rate=0.05,
            latency_spike_rate=0.05,
            latency_multiplier=15.0,
            hang_rate=0.01,
            degraded_rate=0.05,
        )
    },
}

#: Profile names accepted by :func:`apply_fault_profile` / ``--fault-profile``.
FAULT_PROFILE_NAMES: tuple[str, ...] = tuple(sorted(_PROFILES))


def fault_profile_specs(
    profile: str, num_detectors: int
) -> dict[int, FaultSpec]:
    """Resolve a named profile to per-position fault specs.

    Args:
        profile: One of :data:`FAULT_PROFILE_NAMES`.
        num_detectors: Pool size the profile is applied to.

    Returns:
        Mapping from detector position to its :class:`FaultSpec`
        (positions without faults are absent).
    """
    if profile not in _PROFILES:
        raise KeyError(
            f"unknown fault profile {profile!r}; "
            f"known: {list(FAULT_PROFILE_NAMES)}"
        )
    if num_detectors < 1:
        raise ValueError("num_detectors must be positive")
    raw = _PROFILES[profile]
    specs: dict[int, FaultSpec] = {}
    if "all" in raw:
        specs.update({i: raw["all"] for i in range(num_detectors)})
    for position, spec in raw.items():
        if isinstance(position, int) and position < num_detectors:
            specs[position] = spec
    return {i: spec for i, spec in specs.items() if spec.enabled}


def apply_fault_profile(
    detectors: Sequence[object], profile: str, seed: int = 0
) -> list[object]:
    """Wrap a detector pool according to a named fault profile.

    Detectors without faults are returned unwrapped, so ``"none"`` is the
    identity.  Wrapping seeds are derived per detector name from ``seed``,
    keeping faulty runs reproducible end to end.
    """
    specs = fault_profile_specs(profile, len(detectors)) if detectors else {}
    wrapped: list[object] = []
    for index, detector in enumerate(detectors):
        spec = specs.get(index)
        if spec is None:
            wrapped.append(detector)
        else:
            name = str(getattr(detector, "name", index))
            wrapped.append(
                FaultyDetector(
                    detector, spec, seed=derive_seed(seed, "fault", name)
                )
            )
    return wrapped
