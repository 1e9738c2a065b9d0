"""Unit tests for similarity-based frame skipping."""

import pytest

from repro.core.baselines import BruteForce, RandomSelection
from repro.core.environment import DetectionEnvironment
from repro.core.mes import MES
from repro.core.selection import IterativeSelection
from repro.core.skipping import DIFF_DETECTOR_MS, FrameSkipper, frame_similarity
from repro.detection.boxes import BBox
from repro.engine.backends import SerialBackend
from repro.engine.resilience import ResilientBackend
from repro.runner.experiment import standard_setup
from repro.simulation.faults import FaultSpec, FaultyDetector
from repro.simulation.video import Frame, GroundTruthObject


def make_frame(index, boxes, category, video_name="skip-test"):
    objects = tuple(
        GroundTruthObject(i, box, "car", 10.0, 0.9)
        for i, box in enumerate(boxes)
    )
    return Frame(index, category, objects, video_name=video_name)


class TestFrameSimilarity:
    def test_identical_frames(self, clear_category):
        frame = make_frame(0, [BBox(0, 0, 100, 100)], clear_category)
        other = make_frame(1, [BBox(0, 0, 100, 100)], clear_category)
        assert frame_similarity(frame, other) == pytest.approx(1.0)

    def test_both_empty(self, clear_category):
        a = make_frame(0, [], clear_category)
        b = make_frame(1, [], clear_category)
        assert frame_similarity(a, b) == 1.0

    def test_empty_vs_nonempty(self, clear_category):
        a = make_frame(0, [], clear_category)
        b = make_frame(1, [BBox(0, 0, 10, 10)], clear_category)
        assert frame_similarity(a, b) == 0.0

    def test_small_motion_high_similarity(self, clear_category):
        a = make_frame(0, [BBox(100, 100, 300, 300)], clear_category)
        b = make_frame(1, [BBox(105, 100, 305, 300)], clear_category)
        assert frame_similarity(a, b) > 0.9

    def test_large_motion_low_similarity(self, clear_category):
        a = make_frame(0, [BBox(100, 100, 200, 200)], clear_category)
        b = make_frame(1, [BBox(900, 600, 1000, 700)], clear_category)
        assert frame_similarity(a, b) == 0.0

    def test_object_count_change_reduces_similarity(self, clear_category):
        one = make_frame(0, [BBox(0, 0, 100, 100)], clear_category)
        two = make_frame(
            1, [BBox(0, 0, 100, 100), BBox(500, 500, 600, 600)], clear_category
        )
        assert frame_similarity(one, two) < frame_similarity(one, one)

    def test_symmetry(self, clear_category):
        a = make_frame(0, [BBox(0, 0, 120, 90)], clear_category)
        b = make_frame(1, [BBox(30, 10, 140, 95)], clear_category)
        assert frame_similarity(a, b) == pytest.approx(frame_similarity(b, a))


class TestFrameSkipper:
    def _static_frames(self, clear_category, n=12):
        """Frames whose single object never moves (maximally skippable)."""
        return [
            make_frame(i, [BBox(100, 100, 400, 300)], clear_category)
            for i in range(n)
        ]

    def test_covers_all_frames(self, environment, clear_category):
        frames = self._static_frames(clear_category)
        result = FrameSkipper(MES(gamma=2)).run(environment, frames)
        assert result.frames_processed == len(frames)
        assert [r.frame_index for r in result.records] == list(range(len(frames)))

    def test_skipped_frames_cost_almost_nothing(self, environment, clear_category):
        frames = self._static_frames(clear_category)
        result = FrameSkipper(
            BruteForce(), similarity_threshold=0.8, max_consecutive_skips=3
        ).run(environment, frames)
        skipped = [r for r in result.records if r.charged_ms <= DIFF_DETECTOR_MS]
        processed = [r for r in result.records if r.charged_ms > DIFF_DETECTOR_MS]
        assert skipped, "static scene must produce skips"
        assert processed, "max_consecutive_skips must force re-processing"
        for record in skipped:
            assert record.cost_ms == DIFF_DETECTOR_MS

    def test_max_consecutive_skips_enforced(self, environment, clear_category):
        frames = self._static_frames(clear_category, n=20)
        result = FrameSkipper(
            BruteForce(), similarity_threshold=0.5, max_consecutive_skips=2
        ).run(environment, frames)
        consecutive = 0
        for record in result.records:
            if record.charged_ms <= DIFF_DETECTOR_MS:
                consecutive += 1
                assert consecutive <= 2
            else:
                consecutive = 0

    def test_cheaper_than_unskipped_on_static_video(
        self, detector_pool, lidar, clear_category
    ):
        from repro.core.environment import DetectionEnvironment, EvaluationStore

        frames = self._static_frames(clear_category, n=16)
        cache = EvaluationStore()
        env_plain = DetectionEnvironment(detector_pool, lidar, store=cache)
        plain = BruteForce().run(env_plain, frames)
        env_skip = DetectionEnvironment(detector_pool, lidar, store=cache)
        skipped = FrameSkipper(BruteForce()).run(env_skip, frames)
        assert skipped.total_charged_ms < plain.total_charged_ms * 0.7
        # Reused detections on a static scene barely lose accuracy.
        assert skipped.mean_true_ap > plain.mean_true_ap * 0.9

    def test_dynamic_video_rarely_skips(self, environment, small_video):
        result = FrameSkipper(
            MES(gamma=2), similarity_threshold=0.95
        ).run(environment, small_video.frames)
        skipped = sum(
            1 for r in result.records if r.charged_ms <= DIFF_DETECTOR_MS
        )
        # Generated driving scenes move; near-exact similarity is rare.
        assert skipped < len(small_video) * 0.5

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            FrameSkipper(MES(), similarity_threshold=0.0)
        with pytest.raises(ValueError):
            FrameSkipper(MES(), max_consecutive_skips=0)

    def test_name_wraps_inner(self):
        assert FrameSkipper(MES()).name == "skip(MES)"

    def test_observers_see_the_result_records(self):
        """Each observer call carries a record of the result, in order,
        with the batch its detections came from."""
        setup = standard_setup(
            "nusc-night", trial=0, scale=0.02, m=3, max_frames=30, seed=0
        )
        env = DetectionEnvironment(list(setup.detectors), setup.reference)
        seen = []
        result = FrameSkipper(MES(gamma=3)).run(
            env,
            setup.frames,
            observers=[lambda *call: seen.append(call)],
        )
        assert [record for _, _, record in seen] == result.records
        processed_batch = None
        for frame, batch, record in seen:
            assert frame.index == record.frame_index
            if record.charged_ms > DIFF_DETECTOR_MS:
                assert record.charged_ms == batch.billable_ms + DIFF_DETECTOR_MS
                processed_batch = batch
            else:  # skipped: the batch of the frame whose detections it reuses
                assert batch is processed_batch
            assert batch.serving(record.selected).realized_key == (
                record.realized or record.selected
            )
        assert len(seen) > sum(
            1 for record in result.records if record.charged_ms > DIFF_DETECTOR_MS
        )

    def test_requires_iterative_algorithm(self, environment, small_video):
        class NotIterative:
            name = "X"

        skipper = FrameSkipper.__new__(FrameSkipper)
        skipper.inner = NotIterative()
        skipper.similarity_threshold = 0.8
        skipper.max_consecutive_skips = 2
        with pytest.raises(TypeError):
            skipper.run(environment, small_video.frames)


def _faulty_night(fault_profile="none", reference_fault=None):
    """A small nusc-night trial on the CLI's backend for faulty runs."""
    setup = standard_setup(
        "nusc-night",
        trial=0,
        scale=0.02,
        m=3,
        max_frames=60,
        seed=0,
        fault_profile=fault_profile,
    )
    reference = setup.reference
    if reference_fault is not None:
        reference = FaultyDetector(reference, reference_fault, seed=0)
    env = DetectionEnvironment(
        list(setup.detectors),
        reference,
        backend=ResilientBackend(SerialBackend()),
    )
    return env, setup.frames


class TestFrameSkipperUnderFaults:
    def test_records_pair_with_their_own_frames(self):
        """Frames the inner run abandoned must not shift later records."""
        env, frames = _faulty_night("outage-first")
        result = FrameSkipper(
            RandomSelection(seed=1), similarity_threshold=0.999
        ).run(env, frames)
        direct_env, direct_frames = _faulty_night("outage-first")
        direct = RandomSelection(seed=1).run(direct_env, direct_frames)
        assert env.fault_stats().frames_abandoned > 0
        # No frame is similar enough to skip, so every record is the
        # direct run's record for the same frame plus the difference check.
        assert [r.iteration for r in result.records] == [
            r.iteration for r in direct.records
        ]
        for record, expected in zip(result.records, direct.records, strict=True):
            assert record.frame_index == frames[record.iteration - 1].index
            assert record.frame_index == expected.frame_index
            assert record.selected == expected.selected
            assert record.true_score == expected.true_score
            assert record.charged_ms == expected.charged_ms + DIFF_DETECTOR_MS

    def test_reference_outage_abandons_instead_of_raising(self):
        """A skipped frame whose source was abandoned is abandoned too."""
        outage = (3, 20)
        env, frames = _faulty_night(reference_fault=FaultSpec(outage=outage))
        result = FrameSkipper(BruteForce()).run(env, frames)
        assert env.fault_stats().frames_abandoned > 0
        assert 0 < len(result.records) < len(frames)
        assert result.records[-1].frame_index == frames[-1].index
        for record in result.records:
            assert record.frame_index == frames[record.iteration - 1].index
            if record.charged_ms > DIFF_DETECTOR_MS:  # processed, not reused
                assert not outage[0] <= record.frame_index < outage[1]

    def test_selection_dropped_from_its_batch(self):
        """When the selected ensemble realizes empty, the frame is served
        by the batch's best healthy evaluation, skipped or not."""
        setup = standard_setup(
            "nusc-night", trial=0, scale=0.02, m=3, max_frames=12, seed=0
        )
        down, *healthy = setup.detectors
        first, second = down.name, healthy[0].name

        class FirstOrSecond(IterativeSelection):
            name = "first-or-second"

            def _choose(self, env, t, frame):
                return (first,), [(first,), (second,)]

        def run(algorithm):
            faulty = FaultyDetector(down, FaultSpec(outage=(2, 6)), seed=0)
            env = DetectionEnvironment(
                [faulty, *healthy],
                setup.reference,
                backend=ResilientBackend(SerialBackend()),
            )
            return [
                (r.iteration, r.selected, r.realized, r.true_score)
                for r in algorithm.run(env, setup.frames).records
            ]

        plain = run(FirstOrSecond())
        assert any(realized == (second,) for _, _, realized, _ in plain)
        skipper = FrameSkipper(FirstOrSecond(), similarity_threshold=0.999)
        assert run(skipper) == plain

    def test_degraded_frames_keep_realized(self):
        """Processed records keep the subset that ran; a skipped frame
        names the subset whose detections it reuses."""
        env, frames = _faulty_night("flaky-first")
        result = FrameSkipper(MES(gamma=3), similarity_threshold=0.8).run(
            env, frames
        )
        processed = [r for r in result.records if r.charged_ms > DIFF_DETECTOR_MS]
        assert len(processed) < len(result.records)
        degraded = sum(1 for r in processed if r.degraded)
        assert degraded == env.fault_stats().frames_degraded > 0
        source = None
        for record in result.records:
            if record.charged_ms > DIFF_DETECTOR_MS:
                source = record
            else:
                assert source is not None
                assert (record.selected, record.realized) == (
                    source.selected,
                    source.realized,
                )
