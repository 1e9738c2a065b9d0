"""Similarity-based frame skipping — the orthogonal optimization of §3.2.

The paper notes that approaches which "increase processing throughput by
skipping frames based on the similarity of adjacent frames" (NoScope-style
difference detectors) are orthogonal to ensemble selection.  This module
composes the two: :class:`FrameSkipper` wraps any selection algorithm and,
when the current frame is sufficiently similar to the last *processed*
frame, reuses that frame's detections instead of running any detector —
paying only a tiny difference-detector cost.

Similarity here is computed from the scene state (IoU of the ground-truth
layouts), the simulator's stand-in for a pixel-difference detector: two
frames whose objects barely moved are exactly the frames whose pixels a
real difference detector would call similar.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import replace

from repro.core.environment import DetectionEnvironment, EvaluationBatch
from repro.core.selection import (
    FrameObserver,
    FrameRecord,
    IterativeSelection,
    SelectionAlgorithm,
    SelectionResult,
)
from repro.detection.matching import greedy_iou_assignment
from repro.detection.metrics import mean_average_precision
from repro.simulation.video import Frame

__all__ = ["frame_similarity", "FrameSkipper"]

#: Simulated cost of one difference-detector invocation, in ms.  Orders of
#: magnitude below any detector (it is a cheap pixel statistic in practice).
DIFF_DETECTOR_MS = 0.2


def frame_similarity(a: Frame, b: Frame) -> float:
    """Scene similarity of two frames in ``[0, 1]``.

    Greedy best-IoU matching of the two frames' object layouts: the mean
    matched IoU scaled by the fraction of objects matched.  Empty-to-empty
    frames are identical (1.0); empty-to-nonempty are dissimilar (0.0).
    """
    boxes_a = [obj.box for obj in a.objects]
    boxes_b = [obj.box for obj in b.objects]
    if not boxes_a and not boxes_b:
        return 1.0
    if not boxes_a or not boxes_b:
        return 0.0
    # Any overlap pairs two objects: IoU > 0, i.e. at least the smallest
    # positive float.
    pairs = greedy_iou_assignment(
        boxes_a, boxes_b, min_iou=math.nextafter(0.0, 1.0)
    )
    if not pairs:
        return 0.0
    coverage = 2.0 * len(pairs) / (len(boxes_a) + len(boxes_b))
    return (sum(iou for _, _, iou in pairs) / len(pairs)) * coverage


class FrameSkipper(SelectionAlgorithm):
    """Wrap a selection algorithm with similarity-based frame skipping.

    Args:
        inner: The wrapped algorithm (MES, SW-MES, any baseline).
        similarity_threshold: Frames at least this similar to the last
            processed frame are skipped (their detections reused).
        max_consecutive_skips: Hard cap on consecutive skips, so a static
            scene cannot starve the selector (and its bandit statistics)
            forever.

    The result's records cover every frame the run reached, each with its
    1-based position in ``frames`` as ``iteration``: skipped frames carry
    the reused ensemble (selected and realized, as recorded for the frame
    they reuse) with the reused detections' true scores against the
    skipped frame's ground truth, and near-zero charged cost.  A frame
    the inner run abandoned has no record, and neither has any frame
    that would reuse its detections.

    Each caller observer fires once per result record, in order, with the
    frame, that record and the batch its detections came from: the
    frame's own batch when it was processed, the batch of the frame it
    reuses when it was skipped.
    """

    def __init__(
        self,
        inner: SelectionAlgorithm,
        similarity_threshold: float = 0.8,
        max_consecutive_skips: int = 4,
    ) -> None:
        if not 0.0 < similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in (0, 1]")
        if max_consecutive_skips < 1:
            raise ValueError("max_consecutive_skips must be at least 1")
        self.inner = inner
        self.similarity_threshold = similarity_threshold
        self.max_consecutive_skips = max_consecutive_skips

    @property
    def name(self) -> str:
        return f"skip({self.inner.name})"

    def run(
        self,
        env: DetectionEnvironment,
        frames: Sequence[Frame],
        budget_ms: float | None = None,
        observers: Sequence[FrameObserver] = (),
    ) -> SelectionResult:
        if not isinstance(self.inner, IterativeSelection):
            raise TypeError(
                "FrameSkipper requires an IterativeSelection-based algorithm"
            )
        # Phase 1: decide which frames to process vs skip.  Each frame
        # gets the inner iteration (1-based position in processed_frames)
        # whose detections it carries: its own when processed.
        processed_frames: list[Frame] = []
        sources: list[tuple[int, bool]] = []  # (inner iteration, skipped)
        last_processed: Frame | None = None
        consecutive = 0
        for frame in frames:
            skip = (
                last_processed is not None
                and consecutive < self.max_consecutive_skips
                and frame_similarity(last_processed, frame)
                >= self.similarity_threshold
            )
            if skip:
                sources.append((len(processed_frames), True))
                consecutive += 1
            else:
                processed_frames.append(frame)
                sources.append((len(processed_frames), False))
                last_processed = frame
                consecutive = 0

        # Phase 2: run the inner algorithm on the processed subsequence,
        # keeping each processed frame's batch for the frames that reuse
        # it and for the caller's observers.
        batches: dict[int, EvaluationBatch] = {}

        def keep_batch(
            frame: Frame, batch: EvaluationBatch, record: FrameRecord
        ) -> None:
            batches[record.iteration] = batch

        inner_result = self.inner.run(
            env, processed_frames, budget_ms=budget_ms, observers=[keep_batch]
        )
        inner_records = {
            record.iteration: record for record in inner_result.records
        }

        # Phase 3: stitch the records.  A frame whose source has no
        # record (abandoned, or past the budget) gets none either.
        records: list[FrameRecord] = []
        for t, (frame, (source, skipped)) in enumerate(
            zip(frames, sources, strict=True), start=1
        ):
            source_record = inner_records.get(source)
            if source_record is None:
                continue
            batch = batches[source]
            if skipped:
                reused = batch.serving(source_record.selected)
                true_ap = mean_average_precision(
                    reused.detections,
                    frame.ground_truth_detections(),
                    env.iou_threshold,
                )
                # The reused output costs nothing but the difference check;
                # its score reflects zero inference time.
                c_hat = env.normalized_cost(DIFF_DETECTOR_MS)
                record = FrameRecord(
                    iteration=t,
                    frame_index=frame.index,
                    selected=source_record.selected,
                    est_score=env.scoring(reused.est_ap, c_hat),
                    est_ap=reused.est_ap,
                    true_score=env.scoring(true_ap, c_hat),
                    true_ap=true_ap,
                    cost_ms=DIFF_DETECTOR_MS,
                    normalized_cost=c_hat,
                    charged_ms=DIFF_DETECTOR_MS,
                    realized=source_record.realized,
                )
            else:
                record = replace(
                    source_record,
                    iteration=t,
                    charged_ms=source_record.charged_ms + DIFF_DETECTOR_MS,
                )
            records.append(record)
            for observer in observers:
                observer(frame, batch, record)
        return SelectionResult(
            algorithm=self.name, records=records, budget_ms=budget_ms
        )
