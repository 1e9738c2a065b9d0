"""Unit tests for the ground-truth world generator."""

import pytest

from repro.simulation.scenes import SCENE_CATEGORIES
from repro.simulation.world import OBJECT_CLASSES, generate_video


class TestGenerateVideo:
    def test_deterministic(self):
        a = generate_video("v", 20, "clear", seed=3)
        b = generate_video("v", 20, "clear", seed=3)
        for fa, fb in zip(a, b, strict=True):
            assert fa.objects == fb.objects

    def test_different_seeds_differ(self):
        a = generate_video("v", 20, "clear", seed=3)
        b = generate_video("v", 20, "clear", seed=4)
        assert any(fa.objects != fb.objects for fa, fb in zip(a, b, strict=True))

    def test_frame_count_and_indices(self):
        video = generate_video("v", 15, "clear", seed=0)
        assert len(video) == 15
        assert [f.index for f in video] == list(range(15))

    def test_boxes_inside_frame(self):
        video = generate_video("v", 40, "clear", seed=1)
        for frame in video:
            for obj in frame.objects:
                assert 0 <= obj.box.x1 <= obj.box.x2 <= frame.width
                assert 0 <= obj.box.y1 <= obj.box.y2 <= frame.height

    def test_labels_from_class_mix(self):
        video = generate_video("v", 40, "clear", seed=1)
        known = {spec.label for spec in OBJECT_CLASSES}
        for frame in video:
            for obj in frame.objects:
                assert obj.label in known

    def test_object_density_tracks_category(self):
        clear = generate_video("c", 120, "clear", seed=5)
        night = generate_video("n", 120, "night", seed=5)
        mean_clear = sum(len(f.objects) for f in clear) / len(clear)
        mean_night = sum(len(f.objects) for f in night) / len(night)
        # Night scenes are configured sparser (density multiplier 0.7).
        assert mean_night < mean_clear

    def test_tracks_are_coherent(self):
        """An object id seen in consecutive frames moves smoothly."""
        video = generate_video("v", 60, "clear", seed=9)
        last_center = {}
        for frame in video:
            for obj in frame.objects:
                if obj.object_id in last_center:
                    cx, cy = obj.box.center
                    px, py = last_center[obj.object_id]
                    # Per-frame motion is bounded (no teleporting).
                    assert abs(cx - px) < 200
                    assert abs(cy - py) < 200
            last_center = {o.object_id: o.box.center for o in frame.objects}

    def test_visibility_reflects_category(self):
        clear = generate_video("c", 60, "clear", seed=5)
        night = generate_video("n", 60, "night", seed=5)

        def mean_vis(video):
            values = [o.visibility for f in video for o in f.objects]
            return sum(values) / len(values)

        assert mean_vis(night) < mean_vis(clear)

    def test_invalid_num_frames(self):
        with pytest.raises(ValueError):
            generate_video("v", 0, "clear", seed=0)

    def test_category_instance_accepted(self):
        video = generate_video("v", 5, SCENE_CATEGORIES["rainy"], seed=0)
        assert video[0].category.name == "rainy"


class TestCategorySchedule:
    def test_schedule_overrides_frame_category(self):
        from repro.simulation.scenes import SCENE_CATEGORIES

        clear = SCENE_CATEGORIES["clear"]
        night = SCENE_CATEGORIES["night"]
        schedule = [clear] * 5 + [night] * 5
        video = generate_video(
            "sched/v", 10, "clear", seed=1, category_schedule=schedule
        )
        assert video[0].category.name == "clear"
        assert video[9].category.name == "night"

    def test_schedule_changes_visibility_not_population(self):
        """The schedule alters conditions, not the underlying tracks."""
        from repro.simulation.scenes import SCENE_CATEGORIES

        plain = generate_video("sched/w", 12, "clear", seed=4)
        night_sched = generate_video(
            "sched/w", 12, "clear", seed=4,
            category_schedule=[SCENE_CATEGORIES["night"]] * 12,
        )
        for a, b in zip(plain, night_sched, strict=True):
            # Same objects (ids and boxes), different visibility.
            assert [o.object_id for o in a.objects] == [
                o.object_id for o in b.objects
            ]
            for oa, ob in zip(a.objects, b.objects, strict=True):
                assert oa.box == ob.box
                assert ob.visibility <= oa.visibility
