"""Black-box detector profiling from labeled video.

The paper treats detectors as black boxes; an operator assembling a pool
``M`` still needs to know each candidate's per-domain behaviour (SGL needs
"the most accurate single", suites are built from specialists).  This
module estimates exactly the quantities the simulator's
:class:`~repro.simulation.profiles.DetectorProfile` parameterizes —
per-category recall, false-positive rate, localization error, label
accuracy, inference time — purely from a detector's outputs on labeled
frames, closing the loop: profiling a :class:`SimulatedDetector` recovers
the profile it was built from (tested in ``tests/test_calibration.py``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.detection.matching import check_iou_threshold, greedy_match
from repro.simulation.video import Frame

__all__ = ["CategoryStats", "EstimatedProfile", "estimate_profile", "rank_by_recall"]


@dataclass
class CategoryStats:
    """Accumulated observations for one scene category."""

    frames: int = 0
    gt_objects: int = 0
    matched: int = 0
    false_positives: int = 0
    label_correct: int = 0
    iou_sum: float = 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.gt_objects if self.gt_objects else 0.0

    @property
    def fp_per_frame(self) -> float:
        return self.false_positives / self.frames if self.frames else 0.0

    @property
    def mean_matched_iou(self) -> float:
        return self.iou_sum / self.matched if self.matched else 0.0

    @property
    def label_accuracy(self) -> float:
        return self.label_correct / self.matched if self.matched else 0.0


@dataclass(frozen=True)
class EstimatedProfile:
    """A detector's empirically estimated behaviour.

    Attributes:
        detector_name: The profiled detector.
        by_category: Per-scene-category statistics.
        mean_inference_ms: Average per-frame inference time.
        frames_profiled: Total frames observed.
    """

    detector_name: str
    by_category: dict[str, CategoryStats]
    mean_inference_ms: float
    frames_profiled: int

    def recall_on(self, category: str) -> float:
        """Estimated recall on a category (0 when never observed)."""
        stats = self.by_category.get(category)
        return stats.recall if stats is not None else 0.0

    def overall_recall(self) -> float:
        matched = sum(s.matched for s in self.by_category.values())
        total = sum(s.gt_objects for s in self.by_category.values())
        return matched / total if total else 0.0

    def best_category(self) -> str | None:
        """The category this detector handles best (ties broken by name)."""
        observed = {
            name: stats
            for name, stats in self.by_category.items()
            if stats.gt_objects > 0
        }
        if not observed:
            return None
        return max(observed, key=lambda name: (observed[name].recall, name))


def estimate_profile(
    detector,
    frames: Iterable[Frame],
    iou_threshold: float = 0.5,
) -> EstimatedProfile:
    """Profile a black-box detector against labeled frames.

    Matching is class-agnostic at the box level (so a correctly localized
    but mislabeled detection counts toward recall and against label
    accuracy, separating the two error modes), with the VOC greedy match
    of :func:`~repro.detection.matching.greedy_match`.

    Args:
        detector: Anything with ``.name`` and ``.detect(frame)``.
        frames: Labeled frames to profile over (must be non-empty).
        iou_threshold: Match threshold, in ``(0, 1]``.
    """
    check_iou_threshold(iou_threshold)
    by_category: dict[str, CategoryStats] = {}
    total_ms = 0.0
    frames_profiled = 0
    for frame in frames:
        frames_profiled += 1
        output = detector.detect(frame)
        total_ms += output.inference_time_ms
        stats = by_category.setdefault(frame.category.name, CategoryStats())
        stats.frames += 1
        ground_truth = frame.ground_truth_detections()
        stats.gt_objects += len(ground_truth)
        detections = list(output.detections)
        matches = greedy_match(detections, ground_truth, iou_threshold)
        pairs = [(pred, ref, iou) for pred, ref, iou in matches if ref >= 0]
        stats.matched += len(pairs)
        stats.false_positives += len(detections) - len(pairs)
        stats.iou_sum += sum(iou for _, _, iou in pairs)
        for pred_idx, ref_idx, _ in pairs:
            if detections[pred_idx].label == ground_truth[ref_idx].label:
                stats.label_correct += 1
    if frames_profiled == 0:
        raise ValueError("cannot profile over zero frames")
    return EstimatedProfile(
        detector_name=detector.name,
        by_category=by_category,
        mean_inference_ms=total_ms / frames_profiled,
        frames_profiled=frames_profiled,
    )


def rank_by_recall(
    detectors: Sequence,
    frames: Sequence[Frame],
    iou_threshold: float = 0.5,
) -> list[tuple[str, float]]:
    """Rank detectors by overall recall on a frame sample, best first."""
    check_iou_threshold(iou_threshold)
    ranked = [
        (detector.name, estimate_profile(detector, frames, iou_threshold).overall_recall())
        for detector in detectors
    ]
    return sorted(ranked, key=lambda pair: (-pair[1], pair[0]))
