"""Unit tests for the simulated LiDAR reference model."""

import pytest

from repro.detection.boxes import BBox
from repro.simulation.lidar import (
    LidarBox3D,
    SimulatedLidar,
    back_project,
    lift_object,
    project_point,
)
from repro.simulation.video import FRAME_HEIGHT, FRAME_WIDTH, Frame, GroundTruthObject
from repro.simulation.world import generate_video


class TestPinholeCamera:
    def test_project_center(self):
        # The principal point is the frame center.
        u, v = project_point(0.0, 0.0, 10.0)
        assert (u, v) == (FRAME_WIDTH / 2, FRAME_HEIGHT / 2) == (800.0, 450.0)

    def test_project_behind_camera_rejected(self):
        with pytest.raises(ValueError):
            project_point(0, 0, -1.0)

    def test_back_project_roundtrip(self):
        x, y, z = back_project(900.0, 500.0, 25.0)
        u, v = project_point(x, y, z)
        assert u == pytest.approx(900.0)
        assert v == pytest.approx(500.0)

    def test_farther_points_project_closer_to_center(self):
        u_near, _ = project_point(2.0, 0.0, 10.0)
        u_far, _ = project_point(2.0, 0.0, 40.0)
        assert abs(u_far - FRAME_WIDTH / 2) < abs(u_near - FRAME_WIDTH / 2)


class TestLift:
    def test_lift_then_project_recovers_box(self, clear_category):
        obj = GroundTruthObject(0, BBox(600, 300, 900, 500), "car", 20.0, 0.9)
        frame = Frame(0, clear_category)
        box3d = lift_object(obj)
        projected = box3d.project(frame)
        assert projected is not None
        # Projection uses the near face so the box is at least as large as
        # the original; centers should nearly coincide.
        ocx, ocy = obj.box.center
        pcx, pcy = projected.center
        assert abs(ocx - pcx) < 30
        assert abs(ocy - pcy) < 30


class TestLidarBox3D:
    def test_validation(self):
        with pytest.raises(ValueError):
            LidarBox3D(0, 0, -1.0, 1, 1, 1, "car", 0.5)
        with pytest.raises(ValueError):
            LidarBox3D(0, 0, 5.0, 1, 1, 1, "car", 1.5)

    def test_out_of_frame_projection_none(self, clear_category):
        frame = Frame(0, clear_category)
        box = LidarBox3D(x=500.0, y=0.0, z=10.0, width=1, height=1,
                         depth_extent=1, label="car", score=0.9)
        assert box.project(frame) is None


class TestSimulatedLidar:
    def test_deterministic(self, simple_frame):
        lidar = SimulatedLidar(seed=5)
        a = lidar.detect(simple_frame)
        b = lidar.detect(simple_frame)
        assert a.detections == b.detections
        assert a.inference_time_ms == b.inference_time_ms

    def test_much_faster_than_cameras(self, simple_frame):
        # Section 2.3: c_LiDAR << c_M for every camera model.
        lidar = SimulatedLidar(seed=5)
        time_ms = lidar.detect(simple_frame).inference_time_ms
        assert time_ms < 10.0 < 49.5

    def test_night_insensitivity(self):
        """LiDAR recall barely drops at night (the REF premise)."""
        lidar = SimulatedLidar(seed=5)
        clear_video = generate_video("cv", 80, "clear", seed=13)
        night_video = generate_video("nv", 80, "night", seed=13)

        def recall(video):
            found, total = 0, 0
            for frame in video:
                ids = {
                    d.object_id
                    for d in lidar.detect(frame).detections
                    if d.object_id is not None
                }
                total += len(frame.objects)
                found += sum(1 for o in frame.objects if o.object_id in ids)
            return found / max(total, 1)

        r_clear, r_night = recall(clear_video), recall(night_video)
        assert r_night > r_clear * 0.9

    def test_boxes_within_frame(self, small_video):
        lidar = SimulatedLidar(seed=5)
        for frame in small_video:
            for det in lidar.detect(frame).detections:
                assert 0 <= det.box.x1 <= det.box.x2 <= frame.width
                assert 0 <= det.box.y1 <= det.box.y2 <= frame.height
