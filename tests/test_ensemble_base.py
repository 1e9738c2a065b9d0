"""Unit tests for the fusion base class helpers."""


from repro.detection.boxes import BBox
from repro.detection.types import Detection
from repro.ensembling.base import cluster_by_iou
from repro.ensembling.wbf import WeightedBoxesFusion


def det(x1, y1, x2, y2, conf, label="car", source="m1"):
    return Detection(BBox(x1, y1, x2, y2), conf, label, source=source)


class TestClusterByIoU:
    def test_overlapping_boxes_cluster(self):
        dets = [det(0, 0, 10, 10, 0.9), det(1, 0, 11, 10, 0.7)]
        clusters = cluster_by_iou(dets, 0.5)
        assert len(clusters) == 1
        assert clusters[0] == [0, 1]

    def test_disjoint_boxes_separate(self):
        dets = [det(0, 0, 10, 10, 0.9), det(100, 100, 110, 110, 0.7)]
        clusters = cluster_by_iou(dets, 0.5)
        assert len(clusters) == 2

    def test_clusters_ordered_by_confidence(self):
        dets = [
            det(0, 0, 10, 10, 0.3),
            det(0, 0, 10, 10, 0.9),
            det(0, 0, 10, 10, 0.6),
        ]
        clusters = cluster_by_iou(dets, 0.5)
        assert clusters == [[1, 2, 0]]

    def test_representative_is_first_member(self):
        """Membership is tested against the cluster's highest-confidence box."""
        # Chain: a-b overlap, b-c overlap, but a-c do not.  c joins only if
        # it overlaps the representative (a), so it starts a new cluster.
        a = det(0, 0, 10, 10, 0.9)
        b = det(4, 0, 14, 10, 0.8)
        c = det(9, 0, 19, 10, 0.7)
        clusters = cluster_by_iou([a, b, c], 0.4)
        assert len(clusters) == 2
        assert clusters[0][0] == 0

    def test_empty(self):
        assert cluster_by_iou([], 0.5) == []

    def test_indices_partition_input(self):
        dets = [det(10 * i, 0, 10 * i + 8, 8, 0.5 + 0.04 * i) for i in range(8)]
        clusters = cluster_by_iou(dets, 0.3)
        flat = sorted(i for cluster in clusters for i in cluster)
        assert flat == list(range(8))

    def test_equal_confidences_visited_in_pool_order(self):
        # Every confidence tied: an unstable visit order would scramble the
        # clusters.  Neighbours overlap at IoU 2/3, next-but-one at 3/7.
        dets = [
            det(10 * i, 0, 10 * i + 50, 40, 0.5, source=f"m{i % 3 + 1}")
            for i in range(10)
        ]
        clusters = cluster_by_iou(dets, 0.5)
        reps = [cluster[0] for cluster in clusters]
        assert reps == sorted(reps)
        for cluster in clusters:
            assert cluster == sorted(cluster)
        assert clusters == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]


class TestEnsembleMethodRepr:
    def test_repr_shows_parameters(self):
        text = repr(WeightedBoxesFusion(iou_threshold=0.6))
        assert "WeightedBoxesFusion" in text
        assert "iou_threshold=0.6" in text
