"""The per-ensemble WBF that the scope-shared kernel is checked against.

``repro.ensembling.wbf.WeightedBoxesFusion`` fuses every ensemble of a
frame from one :class:`~repro.ensembling.base.FusionScope`.  The function
below is the kernel it replaced, kept only as a test oracle: it pools one
ensemble's outputs, splits them by label, clusters each label's pool on
its own and averages every cluster, sharing nothing.  The parity tests in
``test_fusion_scope.py`` require the two to agree bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.detection.boxes import average_boxes
from repro.detection.types import Detection, FrameDetections


def wbf_fuse(
    per_detector: Sequence[FrameDetections],
    iou_threshold: float = 0.55,
    confidence_threshold: float = 0.0,
    conf_type: str = "avg",
) -> FrameDetections:
    """WBF of one ensemble, computed from scratch."""
    frame_index = per_detector[0].frame_index
    pooled = FrameDetections.pool(frame_index, per_detector)
    num_models = len(per_detector)
    fused: list[Detection] = []
    pools = pooled.by_label()
    for label in sorted(pools):
        pool = [d for d in pools[label] if d.confidence >= confidence_threshold]
        order = sorted(
            range(len(pool)), key=lambda i: pool[i].confidence, reverse=True
        )
        clusters: list[list[int]] = []
        for idx in order:
            for cluster in clusters:
                if pool[cluster[0]].box.iou(pool[idx].box) >= iou_threshold:
                    cluster.append(idx)
                    break
            else:
                clusters.append([idx])
        for cluster in clusters:
            members = [pool[i] for i in cluster]
            confidences = [m.confidence for m in members]
            box = average_boxes([m.box for m in members], confidences)
            if conf_type == "avg":
                conf = sum(confidences) / len(confidences)
            else:
                conf = max(confidences)
            model_count = min(len({m.source for m in members}), num_models)
            conf = conf * model_count / max(num_models, 1)
            conf = min(max(conf, 0.0), 1.0)
            fused.append(
                Detection(
                    box=box,
                    confidence=conf,
                    label=members[0].label,
                    source=members[0].source,
                    object_id=members[0].object_id,
                )
            )
    ordered = tuple(sorted(fused, key=lambda d: d.confidence, reverse=True))
    return FrameDetections(frame_index, ordered, source="wbf")
