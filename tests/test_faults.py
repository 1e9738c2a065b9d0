"""Tests for seeded fault injection (simulation.faults)."""

from __future__ import annotations

import pytest

from repro.simulation import faults
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.faults import (
    FAULT_PROFILE_NAMES,
    DetectorOutageError,
    FaultSpec,
    FaultyDetector,
    TransientDetectorError,
    apply_fault_profile,
    fault_profile_specs,
)
from repro.simulation.profiles import make_profile


def _wrap(detector_pool, spec, seed=3):
    return FaultyDetector(detector_pool[0], spec, seed=seed)


class TestFaultSpec:
    def test_defaults_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert not spec.in_outage(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_rate": -0.1},
            {"transient_rate": 1.5},
            {"degraded_rate": 2.0},
            {"hang_rate": -1.0},
            {"latency_spike_rate": 1.01},
            {"latency_multiplier": 1.0},
            {"latency_spike_rate": -0.01},
            {"hang_rate": 1.01},
            {"outage": (-1, 5)},
            {"outage": (10, 3)},
            {"latency_spike_rate": 1.0, "latency_multiplier": float("nan")},
            {"latency_spike_rate": 1.0, "latency_multiplier": float("inf")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_outage_range_is_half_open(self):
        spec = FaultSpec(outage=(5, 8))
        assert spec.enabled
        assert not spec.in_outage(4)
        assert spec.in_outage(5)
        assert spec.in_outage(7)
        assert not spec.in_outage(8)


class TestFaultyDetector:
    def test_passes_through_surface(self, detector_pool, simple_frame):
        faulty = _wrap(detector_pool, FaultSpec())
        assert faulty.name == detector_pool[0].name
        assert faulty.expected_time_ms == detector_pool[0].expected_time_ms
        output = faulty.detect(simple_frame)
        assert output == detector_pool[0].detect(simple_frame)

    def test_transient_raises_and_retry_redraws(
        self, detector_pool, simple_frame
    ):
        # With rate 1.0 every attempt fails; with a mid rate some attempt
        # sequence must mix failures and successes deterministically.
        always = _wrap(detector_pool, FaultSpec(transient_rate=1.0))
        with pytest.raises(TransientDetectorError):
            always.detect(simple_frame)
        sometimes = _wrap(detector_pool, FaultSpec(transient_rate=0.5))
        outcomes = []
        for _ in range(12):
            try:
                sometimes.detect(simple_frame)
                outcomes.append(True)
            except TransientDetectorError:
                outcomes.append(False)
        assert True in outcomes and False in outcomes

    def test_fault_stream_is_deterministic(self, detector_pool, simple_frame):
        spec = FaultSpec(transient_rate=0.5, degraded_rate=0.3)

        def trace(seed):
            faulty = _wrap(detector_pool, spec, seed=seed)
            out = []
            for _ in range(10):
                try:
                    out.append(faulty.detect(simple_frame))
                except TransientDetectorError:
                    out.append("transient")
            return out

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)

    def test_outage_raises_for_covered_frames(self, detector_pool, small_video):
        faulty = _wrap(detector_pool, FaultSpec(outage=(2, 10**9)))
        assert faulty.detect(small_video.frames[0]) is not None
        with pytest.raises(DetectorOutageError):
            faulty.detect(small_video.frames[2])
        with pytest.raises(DetectorOutageError):  # retries keep failing
            faulty.detect(small_video.frames[2])

    def test_degraded_output_replaces_detections(
        self, detector_pool, simple_frame
    ):
        faulty = _wrap(detector_pool, FaultSpec(degraded_rate=1.0))
        clean = detector_pool[0].detect(simple_frame)
        degraded = faulty.detect(simple_frame)
        assert degraded.detections != clean.detections
        assert degraded.inference_time_ms == clean.inference_time_ms
        for detection in degraded.detections:
            assert detection.source == faulty.name

    def test_latency_spike_and_hang(self, detector_pool, simple_frame):
        clean = detector_pool[0].detect(simple_frame)
        spiked = _wrap(
            detector_pool,
            FaultSpec(latency_spike_rate=1.0, latency_multiplier=25.0),
        ).detect(simple_frame)
        assert spiked.inference_time_ms == pytest.approx(
            clean.inference_time_ms * 25.0
        )
        assert spiked.detections == clean.detections
        hung = _wrap(detector_pool, FaultSpec(hang_rate=1.0)).detect(simple_frame)
        assert hung.inference_time_ms == faults.HANG_MS

    def test_attempt_counters_stay_bounded(
        self, detector_pool, small_video, monkeypatch
    ):
        monkeypatch.setattr(faults, "ATTEMPT_WINDOW", 4)
        faulty = FaultyDetector(detector_pool[0], FaultSpec(transient_rate=0.01))
        for frame in small_video.frames[:20]:
            try:
                faulty.detect(frame)
            except TransientDetectorError:
                pass
        assert len(faulty._attempts) <= 4


class TestProfiles:
    def test_known_names(self):
        assert "none" in FAULT_PROFILE_NAMES
        assert "chaos" in FAULT_PROFILE_NAMES

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError, match="unknown fault profile"):
            fault_profile_specs("meltdown", 3)

    def test_none_profile_is_identity(self, detector_pool):
        wrapped = apply_fault_profile(detector_pool, "none", seed=1)
        assert wrapped == list(detector_pool)

    def test_all_applies_to_every_position(self):
        specs = fault_profile_specs("transient", 4)
        assert sorted(specs) == [0, 1, 2, 3]
        assert all(spec.transient_rate > 0 for spec in specs.values())

    def test_positional_profile_targets_first(self, detector_pool):
        wrapped = apply_fault_profile(detector_pool, "outage-first", seed=1)
        assert isinstance(wrapped[0], FaultyDetector)
        assert wrapped[1] is detector_pool[1]
        assert wrapped[2] is detector_pool[2]

    def test_wrapping_seeds_differ_per_detector(self):
        pool = [
            SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1),
            SimulatedDetector(make_profile("yolov7-tiny", "night"), seed=2),
        ]
        wrapped = apply_fault_profile(pool, "transient", seed=9)
        assert wrapped[0].seed != wrapped[1].seed

    def test_positions_beyond_pool_ignored(self):
        specs = fault_profile_specs("outage-first", 1)
        assert sorted(specs) == [0]
