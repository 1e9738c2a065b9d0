"""Black-box camera object detectors, simulated.

A :class:`SimulatedDetector` realizes the paper's detector abstraction: it
maps a frame to ``<BBox, Conf, Label>`` triplets plus an inference time,
with accuracy characteristics governed by its
:class:`~repro.simulation.profiles.DetectorProfile`.  Output corruption
relative to ground truth has four components:

* **misses** — each ground-truth object is detected with probability
  ``skill x visibility``;
* **localization noise** — detected boxes are jittered proportionally to
  object size, more when out of domain or in low-contrast scenes;
* **label noise** — occasional misclassification;
* **false positives** — Poisson-distributed hallucinated boxes whose rate
  grows with scene clutter and domain mismatch.

Detection is *deterministic per (detector, frame)*: the noise stream is
derived from the detector seed and the frame key, so repeated application
to a frame returns identical output (exactly like re-running a real network
with fixed weights), and downstream caches are sound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.simulation.profiles import DetectorProfile
from repro.simulation.video import Frame
from repro.simulation.world import OBJECT_CLASSES
from repro.utils.rng import derive_rng

__all__ = ["DetectorOutput", "SimulatedDetector"]

_FP_LABELS: tuple[str, ...] = tuple(spec.label for spec in OBJECT_CLASSES)


@dataclass(frozen=True)
class DetectorOutput:
    """The result of applying one detector to one frame.

    Attributes:
        detections: The predicted triplets.
        inference_time_ms: Simulated inference time ``c_{M|v}``.
    """

    detections: FrameDetections
    inference_time_ms: float


def _sample_confidence(
    rng: np.random.Generator, quality: float, sharpness: float
) -> float:
    """Beta-distributed confidence centered on the detection quality."""
    quality = min(max(quality, 0.02), 0.98)
    alpha = quality * sharpness
    beta = (1.0 - quality) * sharpness
    return min(max(float(rng.beta(alpha, beta)), 0.01), 0.99)


class SimulatedDetector:
    """A camera object detector with profile-driven accuracy and speed.

    Args:
        profile: The detector's architecture + training-domain profile.
        seed: Root seed for this detector's noise stream.  Two detectors
            with the same profile but different seeds behave like two
            independently trained checkpoints.
    """

    def __init__(self, profile: DetectorProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def expected_time_ms(self) -> float:
        """Mean per-frame inference time (the Table 3 column)."""
        return self.profile.architecture.base_time_ms

    def detect(self, frame: Frame) -> DetectorOutput:
        """Run (simulated) inference on one frame.

        Deterministic for a fixed ``(seed, profile, frame)``.
        """
        rng = derive_rng(self.seed, "detect", self.profile.name, frame.key)
        arch = self.profile.architecture
        category = frame.category

        skill = self.profile.skill_on(category.name)
        transfer = skill / arch.base_skill if arch.base_skill > 0 else 0.0
        # Out-of-domain and low-contrast conditions inflate box noise.
        noise_scale = arch.localization_noise * (2.0 - transfer) / max(
            category.contrast, 0.1
        )

        detections: list[Detection] = []
        for obj in frame.objects:
            # The exponent softens the visibility penalty so that even hard
            # scenes retain a usable detection signal.
            p_detect = min(skill * (obj.visibility ** 0.7), 1.0)
            if rng.random() >= p_detect:
                continue
            box = self._jitter_box(rng, obj.box, noise_scale, frame)
            quality = skill * obj.visibility
            confidence = _sample_confidence(
                rng, quality, arch.confidence_sharpness
            )
            if rng.random() < self.profile.label_accuracy:
                label = obj.label
            else:
                label = str(rng.choice([l for l in _FP_LABELS if l != obj.label]))
            detections.append(
                Detection(
                    box=box,
                    confidence=confidence,
                    label=label,
                    source=self.name,
                    object_id=obj.object_id,
                )
            )

        detections.extend(self._false_positives(rng, frame, transfer))

        time_ms = self._inference_time(rng, len(detections))
        return DetectorOutput(
            detections=FrameDetections(
                frame.index, tuple(detections), source=self.name
            ),
            inference_time_ms=time_ms,
        )

    def _jitter_box(
        self,
        rng: np.random.Generator,
        box: BBox,
        noise_scale: float,
        frame: Frame,
    ) -> BBox:
        """Perturb a ground-truth box proportionally to its size."""
        sx = noise_scale * max(box.width, 1.0)
        sy = noise_scale * max(box.height, 1.0)
        dx, dy = rng.normal(0.0, sx), rng.normal(0.0, sy)
        dw = rng.normal(1.0, noise_scale)
        dh = rng.normal(1.0, noise_scale)
        cx, cy = box.center
        width = max(box.width * abs(dw), 2.0)
        height = max(box.height * abs(dh), 2.0)
        return BBox.from_center(cx + dx, cy + dy, width, height).clip(
            frame.width, frame.height
        )

    def _false_positives(
        self, rng: np.random.Generator, frame: Frame, transfer: float
    ) -> list[Detection]:
        arch = self.profile.architecture
        rate = arch.false_positive_rate * frame.category.clutter * (
            2.0 - transfer
        ) / 2.0
        count = int(rng.poisson(rate))
        fps: list[Detection] = []
        for _ in range(count):
            width = float(rng.uniform(30.0, 0.25 * frame.width))
            height = float(rng.uniform(30.0, 0.35 * frame.height))
            cx = float(rng.uniform(0.0, frame.width))
            cy = float(rng.uniform(0.0, frame.height))
            box = BBox.from_center(cx, cy, width, height).clip(
                frame.width, frame.height
            )
            if box.area < 16.0:
                continue
            confidence = _sample_confidence(rng, 0.25, arch.confidence_sharpness)
            label = str(rng.choice(_FP_LABELS))
            fps.append(
                Detection(
                    box=box, confidence=confidence, label=label, source=self.name
                )
            )
        return fps

    def _inference_time(self, rng: np.random.Generator, num_boxes: int) -> float:
        """Per-frame time: base cost, multiplicative jitter, per-box NMS cost."""
        base = self.profile.architecture.base_time_ms
        jitter = float(rng.uniform(0.95, 1.05))
        return base * jitter + 0.05 * num_boxes

    def __repr__(self) -> str:
        return (
            f"SimulatedDetector(name={self.name!r}, "
            f"arch={self.profile.architecture.name!r}, "
            f"domain={self.profile.training_domain!r})"
        )
