"""Unit tests for Pareto-front utilities (the MOQO extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.environment import DetectionEnvironment
from repro.core.pareto import (
    EnsemblePoint,
    dominates,
    pareto_ensembles,
    pareto_front,
    profile_ensembles,
)


def point(key, accuracy, cost):
    return EnsemblePoint(key=key, accuracy=accuracy, cost=cost)


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates(point(("a",), 0.8, 0.2), point(("b",), 0.5, 0.5))

    def test_better_one_equal_other(self):
        assert dominates(point(("a",), 0.8, 0.5), point(("b",), 0.5, 0.5))
        assert dominates(point(("a",), 0.5, 0.2), point(("b",), 0.5, 0.5))

    def test_equal_points_do_not_dominate(self):
        a = point(("a",), 0.5, 0.5)
        b = point(("b",), 0.5, 0.5)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_trade_off_no_domination(self):
        a = point(("a",), 0.8, 0.8)
        b = point(("b",), 0.5, 0.2)
        assert not dominates(a, b)
        assert not dominates(b, a)


class TestParetoFront:
    def test_simple_front(self):
        points = [
            point(("a",), 0.9, 0.9),  # most accurate, most expensive
            point(("b",), 0.6, 0.3),  # trade-off
            point(("c",), 0.3, 0.1),  # cheapest
            point(("d",), 0.5, 0.5),  # dominated by b
        ]
        front = pareto_front(points)
        assert [p.key for p in front] == [("a",), ("b",), ("c",)]

    def test_single_point(self):
        points = [point(("a",), 0.5, 0.5)]
        assert pareto_front(points) == points

    def test_empty(self):
        assert pareto_front([]) == []

    def test_sorted_by_decreasing_accuracy(self):
        points = [
            point(("a",), 0.2, 0.1),
            point(("b",), 0.9, 0.9),
            point(("c",), 0.6, 0.4),
        ]
        accs = [p.accuracy for p in pareto_front(points)]
        assert accs == sorted(accs, reverse=True)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60)
    def test_front_members_are_mutually_nondominated(self, raw):
        points = [
            point((f"e{i}",), acc, cost) for i, (acc, cost) in enumerate(raw)
        ]
        front = pareto_front(points)
        # Nobody on the front dominates anyone else on the front.
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(a, b)
        # Everyone off the front is dominated by — or coincides with — a
        # front member (coincident duplicates keep one representative).
        off_front = [p for p in points if p not in front]
        for p in off_front:
            assert any(
                dominates(f, p)
                or (f.accuracy == p.accuracy and f.cost == p.cost)
                for f in front
            )


class TestProfiling:
    def test_profile_covers_lattice(self, environment, small_video):
        points = profile_ensembles(environment, small_video.frames, sample_stride=5)
        assert {p.key for p in points} == set(environment.all_ensembles)
        for p in points:
            assert 0.0 <= p.accuracy <= 1.0
            assert 0.0 <= p.cost <= 1.0

    def test_profiling_does_not_charge(self, environment, small_video):
        profile_ensembles(environment, small_video.frames, sample_stride=5)
        assert environment.clock.total_ms == 0.0

    def test_profiling_reads_true_scores_only(
        self, detector_pool, lidar, small_video
    ):
        """Profiling estimates no AP against REF, and its points equal
        those of uncharged evaluations."""
        env = DetectionEnvironment(detector_pool, lidar)
        points = profile_ensembles(env, small_video.frames, sample_stride=5)
        assert "est_ap" not in env.store.stats().stages
        reference_env = DetectionEnvironment(detector_pool, lidar)
        sample = small_video.frames[::5]
        expected = []
        for key in reference_env.all_ensembles:
            evaluations = [
                reference_env.evaluate(frame, [key], charge=False).evaluations[key]
                for frame in sample
            ]
            ap = sum(e.true_ap for e in evaluations)
            cost = sum(e.normalized_cost for e in evaluations)
            expected.append(
                EnsemblePoint(key, ap / len(sample), cost / len(sample))
            )
        assert points == expected

    def test_pareto_ensembles_subset_of_lattice(self, environment, small_video):
        front = pareto_ensembles(environment, small_video.frames, sample_stride=5)
        assert front
        assert set(front).issubset(set(environment.all_ensembles))
        # The front is a strict reduction of the 7-ensemble lattice in any
        # non-degenerate world.
        assert len(front) <= len(environment.all_ensembles)

    def test_invalid_stride(self, environment, small_video):
        with pytest.raises(ValueError):
            profile_ensembles(environment, small_video.frames, sample_stride=0)

    def test_empty_sample(self, environment):
        with pytest.raises(ValueError):
            profile_ensembles(environment, [], sample_stride=1)
