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

from collections.abc import Sequence

from repro.core.environment import DetectionEnvironment
from repro.core.selection import (
    FrameObserver,
    FrameRecord,
    IterativeSelection,
    SelectionAlgorithm,
    SelectionResult,
)
from repro.detection.boxes import iou_matrix
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
    ious = iou_matrix(boxes_a, boxes_b)
    # Greedy one-to-one matching by descending IoU.
    pairs: list[float] = []
    used_a: set = set()
    used_b: set = set()
    flat = sorted(
        (
            (float(ious[i, j]), i, j)
            for i in range(len(boxes_a))
            for j in range(len(boxes_b))
        ),
        reverse=True,
    )
    for value, i, j in flat:
        if value <= 0.0:
            break
        if i in used_a or j in used_b:
            continue
        used_a.add(i)
        used_b.add(j)
        pairs.append(value)
    if not pairs:
        return 0.0
    coverage = 2.0 * len(pairs) / (len(boxes_a) + len(boxes_b))
    return (sum(pairs) / len(pairs)) * coverage


class FrameSkipper(SelectionAlgorithm):
    """Wrap a selection algorithm with similarity-based frame skipping.

    Args:
        inner: The wrapped algorithm (MES, SW-MES, any baseline).
        similarity_threshold: Frames at least this similar to the last
            processed frame are skipped (their detections reused).
        max_consecutive_skips: Hard cap on consecutive skips, so a static
            scene cannot starve the selector (and its bandit statistics)
            forever.

    The result's records cover *all* frames: skipped frames carry the
    reused ensemble with the reused detections' true scores against the
    skipped frame's ground truth, and near-zero charged cost.
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
        # Phase 1: decide which frames to process vs skip.
        processed_frames: list[Frame] = []
        reuse_from: list[int | None] = []  # per frame: processed idx or None
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
                reuse_from.append(len(processed_frames) - 1)
                consecutive += 1
            else:
                reuse_from.append(None)
                processed_frames.append(frame)
                last_processed = frame
                consecutive = 0

        # Phase 2: run the inner algorithm on the processed subsequence.
        # Observers fire per *processed* frame (skipped frames never form
        # an evaluation batch to observe).
        inner_result = self.inner.run(
            env, processed_frames, budget_ms=budget_ms, observers=observers
        )

        # Phase 3: stitch full-coverage records, reusing detections on
        # skipped frames.
        records: list[FrameRecord] = []
        inner_by_position = {
            i: record for i, record in enumerate(inner_result.records)
        }
        position = -1
        for frame, reuse in zip(frames, reuse_from, strict=True):
            if reuse is None:
                position += 1
                inner_record = inner_by_position.get(position)
                if inner_record is None:
                    break  # budget exhausted inside the inner run
                records.append(
                    FrameRecord(
                        iteration=len(records) + 1,
                        frame_index=frame.index,
                        selected=inner_record.selected,
                        est_score=inner_record.est_score,
                        est_ap=inner_record.est_ap,
                        true_score=inner_record.true_score,
                        true_ap=inner_record.true_ap,
                        cost_ms=inner_record.cost_ms,
                        normalized_cost=inner_record.normalized_cost,
                        charged_ms=inner_record.charged_ms + DIFF_DETECTOR_MS,
                    )
                )
            else:
                source_record = inner_by_position.get(reuse)
                if source_record is None:
                    break
                source_frame = processed_frames[reuse]
                # An uncharged evaluate, not a peek: the record needs the
                # reused output's estimated AP too.
                reused = env.evaluate(
                    source_frame, [source_record.selected], charge=False
                ).evaluations[source_record.selected]
                true_ap = mean_average_precision(
                    reused.detections,
                    frame.ground_truth_detections(),
                    env.iou_threshold,
                )
                # The reused output costs nothing but the difference check;
                # its score reflects zero inference time.
                c_hat = env.normalized_cost(DIFF_DETECTOR_MS)
                records.append(
                    FrameRecord(
                        iteration=len(records) + 1,
                        frame_index=frame.index,
                        selected=source_record.selected,
                        est_score=env.scoring(reused.est_ap, c_hat),
                        est_ap=reused.est_ap,
                        true_score=env.scoring(true_ap, c_hat),
                        true_ap=true_ap,
                        cost_ms=DIFF_DETECTOR_MS,
                        normalized_cost=c_hat,
                        charged_ms=DIFF_DETECTOR_MS,
                    )
                )
        return SelectionResult(
            algorithm=self.name, records=records, budget_ms=budget_ms
        )
