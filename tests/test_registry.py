"""Unit tests for the fusion-method registry."""

import pytest

from repro.ensembling.registry import available_methods, create_method
from repro.ensembling.wbf import WeightedBoxesFusion


class TestRegistry:
    def test_all_paper_methods_present(self):
        # The six methods compared in Section 5.2.
        expected = {"nms", "soft_nms", "softer_nms", "wbf", "nmw", "fusion"}
        assert set(available_methods()) == expected

    def test_create_by_name(self):
        method = create_method("wbf")
        assert isinstance(method, WeightedBoxesFusion)

    def test_create_case_insensitive(self):
        assert isinstance(create_method("WBF"), WeightedBoxesFusion)

    def test_create_with_kwargs(self):
        method = create_method("wbf", iou_threshold=0.7)
        assert method.iou_threshold == 0.7

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown ensemble method"):
            create_method("quantum_nms")
