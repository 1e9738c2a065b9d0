"""Unit tests for the Table 1 / Table 2 dataset builders."""

import pytest

from repro.simulation import datasets
from repro.simulation.datasets import (
    BDD_SPEC,
    DatasetSpec,
    GroupSpec,
    NUSCENES_SPEC,
    build_bdd_like,
    build_nuscenes_like,
)


class TestGroupSpec:
    def test_num_samples(self):
        group = GroupSpec("g", (("clear", 1.0),), 10, 50)
        assert group.num_samples == 500

    def test_scaled_keeps_at_least_one_scene(self):
        group = GroupSpec("g", (("clear", 1.0),), 10, 50)
        assert group.scaled(0.001).num_scenes == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            GroupSpec("", (("clear", 1.0),), 1, 1)
        with pytest.raises(ValueError):
            GroupSpec("g", (), 1, 1)
        with pytest.raises(ValueError):
            GroupSpec("g", (("clear", 1.0),), 0, 1)


class TestSpecs:
    def test_nuscenes_matches_table1(self):
        # Table 1: 850 scenes / 42,500 samples; clear 274 / 13,700;
        # night 79 / 3,950; rainy 184 / 9,200.
        total_scenes = sum(g.num_scenes for g in NUSCENES_SPEC.groups)
        total_samples = sum(g.num_samples for g in NUSCENES_SPEC.groups)
        assert total_scenes == 850
        assert total_samples == 42_500
        by_name = {g.name: g for g in NUSCENES_SPEC.groups}
        assert by_name["nusc-clear"].num_scenes == 274
        assert by_name["nusc-clear"].num_samples == 13_700
        assert by_name["nusc-night"].num_scenes == 79
        assert by_name["nusc-night"].num_samples == 3_950
        assert by_name["nusc-rainy"].num_scenes == 184
        assert by_name["nusc-rainy"].num_samples == 9_200

    def test_bdd_matches_table2(self):
        by_name = {g.name: g for g in BDD_SPEC.groups}
        assert by_name["bdd-main"].num_scenes == 300
        assert by_name["bdd-main"].num_samples == 30_000
        assert by_name["bdd-rainy"].num_scenes == 120
        assert by_name["bdd-snow"].num_scenes == 132

    def test_duplicate_group_names_rejected(self):
        group = GroupSpec("g", (("clear", 1.0),), 1, 1)
        with pytest.raises(ValueError):
            DatasetSpec("d", (group, group))


class TestBuild:
    @pytest.fixture(scope="class")
    def tiny_nusc(self):
        return build_nuscenes_like(seed=1, scale=0.01)

    def test_group_structure(self, tiny_nusc):
        assert set(tiny_nusc.group_names()) == {
            "nusc-clear",
            "nusc-night",
            "nusc-rainy",
            "nusc-other",
        }

    def test_homogeneous_group_categories(self, tiny_nusc):
        for video in tiny_nusc.scenes("nusc-night"):
            assert all(f.category.name == "night" for f in video)

    def test_deterministic_build(self):
        a = build_nuscenes_like(seed=1, scale=0.01)
        b = build_nuscenes_like(seed=1, scale=0.01)
        for va, vb in zip(a.scenes(), b.scenes(), strict=True):
            assert va.name == vb.name
            assert all(fa.objects == fb.objects for fa, fb in zip(va, vb, strict=True))

    def test_resample_changes_content(self, tiny_nusc):
        resampled = tiny_nusc.resample(trial=3)
        assert resampled.spec is tiny_nusc.spec
        original = tiny_nusc.scenes()[0]
        changed = resampled.scenes()[0]
        assert any(
            fa.objects != fb.objects for fa, fb in zip(original, changed, strict=True)
        )

    def test_as_video_concatenates_group(self, tiny_nusc):
        video = tiny_nusc.as_video("nusc-night")
        assert len(video) == tiny_nusc.num_samples("nusc-night")
        assert video.breakpoints == ()

    def test_as_video_whole_dataset(self, tiny_nusc):
        video = tiny_nusc.as_video()
        assert len(video) == tiny_nusc.num_samples()

    def test_unknown_group(self, tiny_nusc):
        with pytest.raises(KeyError):
            tiny_nusc.scenes("nusc-fog")

    def test_summary_rows(self, tiny_nusc):
        rows = tiny_nusc.summary()
        assert [r["group"] for r in rows] == tiny_nusc.group_names()
        for row in rows:
            assert row["num_samples"] > 0
            assert row["duration_min"] > 0

    def test_duration_uses_frame_rate(self):
        data = build_nuscenes_like(seed=0, scale=0.01)
        samples = data.num_samples()
        assert data.duration_minutes() == pytest.approx(samples / 2.0 / 60.0)

    @pytest.mark.parametrize(
        ("spec", "rows"),
        [
            (
                NUSCENES_SPEC,
                [
                    ("nusc-clear", 5, 250, 2.1),
                    ("nusc-night", 2, 100, 0.8),
                    ("nusc-rainy", 4, 200, 1.7),
                    ("nusc-other", 6, 300, 2.5),
                ],
            ),
            (
                BDD_SPEC,
                [
                    ("bdd-main", 6, 600, 4.0),
                    ("bdd-rainy", 2, 84, 0.6),
                    ("bdd-snow", 3, 126, 0.8),
                ],
            ),
        ],
    )
    def test_summary_rows_pinned(self, spec, rows):
        summary = spec.scaled(0.02).build(seed=0).summary()
        assert [
            (r["group"], r["num_scenes"], r["num_samples"], r["duration_min"])
            for r in summary
        ] == rows

    def test_bdd_mixed_main_group(self):
        data = build_bdd_like(seed=2, scale=0.03)
        categories = {
            f.category.name for v in data.scenes("bdd-main") for f in v
        }
        assert len(categories) >= 2  # genuinely mixed conditions


class TestLeadingFrames:
    """``DatasetSpec.leading_frames`` builds only the scenes it returns."""

    SPEC = NUSCENES_SPEC.scaled(0.02)  # 5/2/4/6 scenes of 50 frames

    @pytest.fixture
    def generated(self, monkeypatch):
        """Names of the scene videos generated during the test."""
        names = []
        original = datasets.generate_video

        def counting(**kwargs):
            names.append(kwargs["name"])
            return original(**kwargs)

        monkeypatch.setattr(datasets, "generate_video", counting)
        return names

    @pytest.mark.parametrize(
        ("group", "max_frames"),
        [(None, None), (None, 275), ("nusc-rainy", 120), ("nusc-night", 500)],
    )
    def test_equals_full_build(self, group, max_frames):
        full = self.SPEC.build(seed=3).as_video(group).frames
        expected = full if max_frames is None else full[:max_frames]
        assert self.SPEC.leading_frames(3, group, max_frames) == expected

    def test_generates_only_the_leading_scenes(self, generated):
        frames = self.SPEC.leading_frames(3, "nusc-rainy", 75)
        assert len(frames) == 75
        assert generated == [
            "nusc/nusc-rainy/scene0000",
            "nusc/nusc-rainy/scene0001",
        ]

    def test_crosses_groups_in_order(self, generated):
        frames = self.SPEC.leading_frames(3, None, 275)
        assert len(frames) == 275
        assert generated == [
            *(f"nusc/nusc-clear/scene{i:04d}" for i in range(5)),
            "nusc/nusc-night/scene0000",
        ]

    def test_zero_frames_generates_nothing(self, generated):
        assert self.SPEC.leading_frames(3, "nusc-clear", 0) == ()
        assert generated == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="max_frames"):
            self.SPEC.leading_frames(3, "nusc-clear", -1)
        with pytest.raises(KeyError, match="nusc-fog"):
            self.SPEC.leading_frames(3, "nusc-fog")
