"""Property-based tests over all fusion methods."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import BBox
from repro.detection.types import Detection, FrameDetections
from repro.ensembling.registry import available_methods, create_method

labels = st.sampled_from(["car", "bus"])


@st.composite
def detections(draw):
    x1 = draw(st.floats(min_value=0, max_value=800))
    y1 = draw(st.floats(min_value=0, max_value=400))
    w = draw(st.floats(min_value=5, max_value=300))
    h = draw(st.floats(min_value=5, max_value=200))
    conf = draw(st.floats(min_value=0.05, max_value=0.99))
    source = draw(st.sampled_from(["m1", "m2", "m3", "m4"]))
    return Detection(BBox(x1, y1, x1 + w, y1 + h), conf, draw(labels), source=source)


@st.composite
def detector_outputs(draw):
    num_models = draw(st.integers(min_value=1, max_value=4))
    frames = []
    for i in range(num_models):
        dets = draw(st.lists(detections(), min_size=0, max_size=12))
        frames.append(FrameDetections(0, tuple(dets), source=f"m{i+1}"))
    return frames


@pytest.mark.parametrize("method_name", available_methods())
@given(per_detector=detector_outputs())
@settings(max_examples=25, deadline=None)
def test_fusion_invariants(method_name, per_detector):
    """Invariants every fusion method must satisfy."""
    method = create_method(method_name)
    fused = method.fuse(per_detector)

    total_in = sum(len(f) for f in per_detector)
    # Fusion never invents detections.
    assert len(fused) <= total_in
    # Output frame metadata.
    assert fused.frame_index == 0
    assert fused.source == method_name

    input_labels = {d.label for f in per_detector for d in f}
    for det in fused:
        # Confidences remain valid probabilities.
        assert 0.0 <= det.confidence <= 1.0
        # No new class labels appear.
        assert det.label in input_labels
        # Fused boxes stay within the inputs' bounding hull.
        hull = None
        for f in per_detector:
            for d in f:
                hull = d.box if hull is None else hull.enclosing(d.box)
        assert hull is not None
        assert hull.x1 - 1e-6 <= det.box.x1
        assert det.box.x2 <= hull.x2 + 1e-6
        assert hull.y1 - 1e-6 <= det.box.y1
        assert det.box.y2 <= hull.y2 + 1e-6

    # Output ordered by decreasing confidence.
    confs = [d.confidence for d in fused]
    assert confs == sorted(confs, reverse=True)


@pytest.mark.parametrize("method_name", available_methods())
@given(per_detector=detector_outputs())
@settings(max_examples=15, deadline=None)
def test_fusion_deterministic(method_name, per_detector):
    method = create_method(method_name)
    assert method.fuse(per_detector) == method.fuse(per_detector)


@pytest.mark.parametrize("method_name", available_methods())
def test_fusion_empty_inputs(method_name):
    method = create_method(method_name)
    fused = method.fuse([FrameDetections(0), FrameDetections(0)])
    assert len(fused) == 0
