"""WBF fuses a frame's ensembles from one shared scope, with unchanged results.

Every ensemble fused through a shared :class:`FusionScope` must equal the
same ensemble fused in a fresh call and the from-scratch oracle
(``tests/wbf_oracle.py``), bit for bit, whatever order the ensembles are
fused in; and within one frame, value-equal fused detections and boxes are
one object.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.environment import DetectionEnvironment
from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.ensembling.base import FusionScope
from repro.ensembling.nms import NonMaximumSuppression
from repro.ensembling.wbf import WeightedBoxesFusion
from repro.runner.experiment import standard_setup
from tests.wbf_oracle import wbf_fuse

#: WBF configurations the parity property runs under: the paper's, the
#: ``max`` aggregate, and a low IoU threshold with a confidence floor.
CONFIGS = (
    {},
    {"conf_type": "max"},
    {"iou_threshold": 0.3, "confidence_threshold": 0.4},
)


@st.composite
def detections(draw):
    # Coordinates on a coarse grid and confidences from a short list make
    # duplicate boxes, zero-area boxes and tied confidences common.
    x1 = draw(st.integers(0, 40))
    y1 = draw(st.integers(0, 40))
    width = draw(st.sampled_from([0, 0, 5, 10, 12, 30]))
    height = draw(st.sampled_from([0, 5, 10, 10, 25]))
    conf = draw(
        st.one_of(
            st.sampled_from([0.2, 0.5, 0.5, 0.9]),
            st.floats(min_value=0.01, max_value=1.0),
        )
    )
    return Detection(
        BBox(float(x1), float(y1), float(x1 + width), float(y1 + height)),
        conf,
        draw(st.sampled_from(["car", "car", "bus"])),
        source=draw(st.sampled_from([None, "m1", "m2", "m3"])),
        object_id=draw(st.sampled_from([None, 1, 2])),
    )


@st.composite
def frames(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    return [
        FrameDetections(3, tuple(draw(st.lists(detections(), max_size=8))), f"d{i}")
        for i in range(count)
    ]


def subsets(parts):
    """Every non-empty subsequence of ``parts``, in ensemble-key order."""
    return [
        list(combo)
        for size in range(1, len(parts) + 1)
        for combo in combinations(parts, size)
    ]


class TestParity:
    @given(
        parts=frames(),
        config=st.sampled_from(CONFIGS),
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_shared_scope_equals_fresh_fusion(self, parts, config, order, rng):
        wbf = WeightedBoxesFusion(**config)
        ensembles = subsets(parts)
        if order == "descending":
            ensembles.reverse()
        elif order == "shuffled":
            rng.shuffle(ensembles)
        scope = FusionScope(parts)
        for members in ensembles:
            shared = wbf.fuse(members, scope)
            fresh = WeightedBoxesFusion(**config).fuse(members)
            assert repr(shared) == repr(fresh)
            assert repr(shared) == repr(wbf_fuse(members, **config))

    def test_outputs_outside_the_scope_rejected(self):
        a = FrameDetections(0, (Detection(BBox(0, 0, 10, 10), 0.9, "car"),))
        b = FrameDetections(0, (Detection(BBox(5, 0, 15, 10), 0.8, "car"),))
        scope = FusionScope([a, b])
        for members in ([b, a], [FrameDetections(0, a.detections)], [a, a]):
            with pytest.raises(ValueError, match="subsequence"):
                WeightedBoxesFusion().fuse(members, scope)

    def test_other_methods_ignore_the_scope(self):
        a = FrameDetections(0, (Detection(BBox(0, 0, 10, 10), 0.9, "car"),))
        b = FrameDetections(0, (Detection(BBox(1, 0, 11, 10), 0.8, "car"),))
        nms = NonMaximumSuppression()
        assert nms.fuse([a, b], FusionScope([b])) == nms.fuse([a, b])


@pytest.fixture(scope="module")
def night_setup():
    """The paper workload's first 20 frames: nusc-night, m=5, seed 0."""
    return standard_setup(
        "nusc-night", trial=0, scale=0.2, m=5, max_frames=20, seed=0
    )


def environment(setup):
    return DetectionEnvironment(list(setup.detectors), setup.reference)


def fresh_fusion(env, frame, key):
    """An independent fusion of ``key``'s outputs on ``frame``."""
    members = [env.detector(model).detect(frame).detections for model in key]
    fused = WeightedBoxesFusion().fuse(members)
    assert repr(fused) == repr(wbf_fuse(members))
    return fused


class TestEnvironment:
    def test_evaluations_equal_independent_fusions(self, night_setup):
        env = environment(night_setup)
        assert len(env.all_ensembles) == 31
        for frame in night_setup.frames:
            batch = env.evaluate(frame, env.all_ensembles)
            for key, evaluation in batch.evaluations.items():
                expected = fresh_fusion(env, frame, key)
                assert repr(evaluation.detections) == repr(expected)

    def test_peek_best_equals_an_independent_fusion(self, night_setup):
        env = environment(night_setup)
        for frame in night_setup.frames:
            best = env.peek_best(frame, env.all_ensembles)
            expected = fresh_fusion(env, frame, best.key)
            assert repr(best.detections) == repr(expected)

    def test_equal_fused_values_are_one_object(self, night_setup):
        env = environment(night_setup)
        shared_detections = 0
        for frame in night_setup.frames:
            batch = env.evaluate(frame, env.all_ensembles)
            detections: dict[Detection, set[int]] = {}
            boxes: dict[BBox, set[int]] = {}
            appearances = 0
            for evaluation in batch.evaluations.values():
                for det in evaluation.detections:
                    detections.setdefault(det, set()).add(id(det))
                    boxes.setdefault(det.box, set()).add(id(det.box))
                    appearances += 1
            assert all(len(ids) == 1 for ids in detections.values())
            assert all(len(ids) == 1 for ids in boxes.values())
            shared_detections += appearances - len(detections)
        # The property is not vacuous: many detections are shared.
        assert shared_detections > 0
