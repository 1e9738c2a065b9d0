"""Object-detection substrate: boxes, detections, matching, and AP metrics.

This subpackage provides the detection-side primitives the paper's
selection algorithms consume: axis-aligned bounding boxes
(:mod:`repro.detection.boxes`), the ``<BBox, Conf, Label>`` detection
triplets of the paper's Section 2.1 (:mod:`repro.detection.types`), the
one VOC greedy match that both AP scoring and detector calibration use
(:mod:`repro.detection.matching`), and the all-point-interpolated Average
Precision / mAP metrics used throughout the evaluation
(:mod:`repro.detection.metrics`).
"""

from repro.detection.boxes import BBox, iou_matrix
from repro.detection.matching import greedy_match
from repro.detection.metrics import average_precision, mean_average_precision
from repro.detection.types import Detection, FrameDetections

__all__ = [
    "BBox",
    "Detection",
    "FrameDetections",
    "average_precision",
    "greedy_match",
    "iou_matrix",
    "mean_average_precision",
]
