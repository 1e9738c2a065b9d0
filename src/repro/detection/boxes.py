"""Axis-aligned bounding boxes and their geometric algebra.

Boxes use the ``(x1, y1, x2, y2)`` corner convention with ``x1 <= x2`` and
``y1 <= y2``, in arbitrary (but consistent) image units.  All operations are
pure: they return new boxes and never mutate their inputs.

The module offers a scalar :class:`BBox` value type, used by fusion,
matching and AP scoring, and a vectorized :func:`iou_matrix`, used by
tracking and frame skipping for all-pairs IoU between two box sets.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["BBox", "iou_matrix"]


@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box in corner format.

    Attributes:
        x1: Left edge.
        y1: Top edge.
        x2: Right edge (``>= x1``).
        y2: Bottom edge (``>= y1``).
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x1, self.y1, self.x2, self.y2)):
            raise ValueError(f"BBox coordinates must be finite, got {self!r}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(
                f"BBox corners must satisfy x1 <= x2 and y1 <= y2, got {self!r}"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    @classmethod
    def from_center(
        cls, cx: float, cy: float, width: float, height: float
    ) -> BBox:
        """Build a box from a center point and side lengths."""
        if width < 0 or height < 0:
            raise ValueError("width and height must be non-negative")
        half_w = width / 2.0
        half_h = height / 2.0
        return cls(cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    def intersection(self, other: BBox) -> float:
        """Area of overlap with ``other`` (zero if disjoint)."""
        iw = min(self.x2, other.x2) - max(self.x1, other.x1)
        ih = min(self.y2, other.y2) - max(self.y1, other.y1)
        if iw <= 0 or ih <= 0:
            return 0.0
        return iw * ih

    def iou(self, other: BBox) -> float:
        """Intersection-over-union with ``other``, in ``[0, 1]``."""
        inter = self.intersection(other)
        if inter == 0.0:
            return 0.0
        union = self.area + other.area - inter
        if union <= 0.0:
            # Two degenerate (zero-area) boxes at the same location.
            return 0.0
        return inter / union

    def enclosing(self, other: BBox) -> BBox:
        """Smallest box containing both ``self`` and ``other``."""
        return BBox(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def translate(self, dx: float, dy: float) -> BBox:
        """Shift the box by ``(dx, dy)``."""
        return BBox(self.x1 + dx, self.y1 + dy, self.x2 + dx, self.y2 + dy)

    def clip(self, frame_width: float, frame_height: float) -> BBox:
        """Clip the box to ``[0, frame_width] x [0, frame_height]``.

        Boxes entirely outside the frame collapse onto the nearest edge,
        yielding a zero-area box rather than raising.
        """
        x1 = min(max(self.x1, 0.0), frame_width)
        y1 = min(max(self.y1, 0.0), frame_height)
        x2 = min(max(self.x2, 0.0), frame_width)
        y2 = min(max(self.y2, 0.0), frame_height)
        return BBox(x1, y1, max(x1, x2), max(y1, y2))


def _corners(boxes: Sequence[BBox]) -> np.ndarray:
    """Stack boxes into an ``(n, 4)`` float array in corner format."""
    rows = [(b.x1, b.y1, b.x2, b.y2) for b in boxes]
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), 4)


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU between two box collections.

    Returns:
        An ``(n, m)`` array where entry ``(i, j)`` is the IoU of
        ``boxes_a[i]`` with ``boxes_b[j]``.
    """
    a = _corners(boxes_a)
    b = _corners(boxes_b)
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]), dtype=np.float64)

    # Intersection rectangle per pair, broadcast over the (n, m) grid.
    # Buffers are reused via ``out=`` — same elementwise operations (and
    # therefore bit-identical results), about half the allocations; this
    # matrix is rebuilt for every tracked frame.
    iw = np.maximum(a[:, None, 0], b[None, :, 0])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    np.subtract(ix2, iw, out=iw)
    np.clip(iw, 0.0, None, out=iw)
    ih = np.maximum(a[:, None, 1], b[None, :, 1])
    np.minimum(a[:, None, 3], b[None, :, 3], out=ix2)
    np.subtract(ix2, ih, out=ih)
    np.clip(ih, 0.0, None, out=ih)
    inter = np.multiply(iw, ih, out=iw)

    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = np.add(area_a[:, None], area_b[None, :], out=ih)
    np.subtract(union, inter, out=union)

    with np.errstate(divide="ignore", invalid="ignore"):
        result = np.where(union > 0.0, inter / union, 0.0)
    return result


def average_boxes(boxes: Iterable[BBox], weights: Sequence[float] | None = None) -> BBox:
    """Weighted coordinate-wise average of boxes (used by fusion methods).

    Args:
        boxes: Boxes to average; must be non-empty.
        weights: Optional per-box finite, non-negative weights; defaults
            to uniform.

    Returns:
        The weighted-mean box.
    """
    box_list = list(boxes)
    if not box_list:
        raise ValueError("cannot average an empty collection of boxes")
    # Pure-Python accumulation: fusion averages a handful of boxes per call
    # and sits on the hot path, where array setup would dominate.
    if weights is None:
        weight_list = [1.0] * len(box_list)
    else:
        weight_list = [float(w) for w in weights]
        if len(weight_list) != len(box_list):
            raise ValueError("weights length must match number of boxes")
        # One pass in the common case: NaN, infinities and negatives all
        # fail ``0 <= w < inf``.
        if not all(0.0 <= w < math.inf for w in weight_list):
            if not all(math.isfinite(w) for w in weight_list):
                raise ValueError(f"weights must be finite, got {weight_list!r}")
            raise ValueError("weights must be non-negative")
    total = sum(weight_list)
    if total <= 0:
        raise ValueError("weights must not all be zero")
    x1 = y1 = x2 = y2 = 0.0
    for box, w in zip(box_list, weight_list, strict=True):
        x1 += box.x1 * w
        y1 += box.y1 * w
        x2 += box.x2 * w
        y2 += box.y2 * w
    return BBox(x1 / total, y1 / total, x2 / total, y2 / total)
