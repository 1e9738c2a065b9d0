"""Object-detection substrate: boxes, detections, matching, and AP metrics.

This subpackage provides the detection-side primitives the paper's
selection algorithms consume: axis-aligned bounding boxes with the usual
geometric algebra (:mod:`repro.detection.boxes`), the
``<BBox, Conf, Label>`` detection triplets of the paper's Section 2.1
(:mod:`repro.detection.types`), greedy IoU matching between detection sets
(:mod:`repro.detection.matching`), and the Average Precision / mAP metrics
used throughout the evaluation (:mod:`repro.detection.metrics`).
"""

from repro.detection.boxes import BBox, iou_matrix
from repro.detection.matching import MatchResult, match_detections
from repro.detection.metrics import (
    PRCurve,
    average_precision,
    mean_average_precision,
    precision_recall_curve,
)
from repro.detection.types import Detection, FrameDetections

__all__ = [
    "BBox",
    "Detection",
    "FrameDetections",
    "MatchResult",
    "PRCurve",
    "average_precision",
    "iou_matrix",
    "match_detections",
    "mean_average_precision",
    "precision_recall_curve",
]
