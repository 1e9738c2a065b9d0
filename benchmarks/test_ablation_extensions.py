"""Extension ablations beyond the paper's figures (DESIGN.md §5).

Three design-choice ablations the paper motivates but does not measure:

* **Pareto pruning** (the MOQO future-work direction of Section 6):
  restricting MES's arm set to the Pareto front of a short calibration
  sample should match full-lattice MES while exploring fewer arms.
* **Drift mechanisms**: SW-MES's hard window vs D-MES's geometric
  discounting vs plain MES under abrupt drift.
* **Frame skipping** (the orthogonal optimization of Section 3.2):
  wrapping MES in a similarity-based skipper trades a little AP for a
  large cost reduction.
"""

import pytest
from benchmarks.common import banner, scaled

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.mes import MES
from repro.core.pareto import pareto_ensembles
from repro.core.scoring import WeightedLogScore
from repro.core.skipping import FrameSkipper
from repro.core.sw_mes import DMES, SWMES
from repro.runner.experiment import nuscenes_detector_suite, standard_setup
from repro.runner.reporting import format_table
from repro.simulation.drift import compose_drifting_video
from repro.simulation.lidar import SimulatedLidar
from repro.simulation.world import generate_video


class _ParetoMES(MES):
    """MES restricted to a fixed arm subset (for the pruning ablation)."""

    name = "MES(front)"

    def __init__(self, arms, gamma=5):
        super().__init__(gamma=gamma)
        self._arms = list(arms)

    def _choose(self, env, t, frame):
        if t <= self.gamma:
            # Initialization over the restricted arm set only.
            return max(self._arms, key=len), list(self._arms)
        best = max(self._arms, key=lambda key: (self._stats.ucb(key, t - 1), key))
        from repro.core.ensembles import subsets_inclusive

        eval_keys = [
            key for key in subsets_inclusive(best) if key in set(self._arms)
        ]
        if best not in eval_keys:
            eval_keys.append(best)
        return best, eval_keys


@pytest.mark.benchmark(group="ablation-ext")
def test_pareto_pruned_mes_matches_full_lattice(benchmark):
    setup = standard_setup(
        "nusc-night", trial=0, scale=0.3, m=5, max_frames=scaled(2000)
    )
    scoring = WeightedLogScore(0.5)
    cache = EvaluationStore()

    def run_all():
        calib_env = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=scoring, store=cache
        )
        front = pareto_ensembles(
            calib_env, setup.frames[:200], sample_stride=4
        )
        env_full = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=scoring, store=cache
        )
        full = MES(gamma=5).run(env_full, setup.frames)
        env_front = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=scoring, store=cache
        )
        pruned = _ParetoMES(front, gamma=5).run(env_front, setup.frames)
        return front, full, pruned

    front, full, pruned = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        {"variant": "MES (31 arms)", "s_sum": full.s_sum, "arms": 31},
        {
            "variant": "MES (Pareto front)",
            "s_sum": pruned.s_sum,
            "arms": len(front),
        },
    ]
    print(banner("Extension — Pareto-pruned MES (MOQO direction)"))
    print(format_table(rows, precision=1))

    # The front is a real reduction of the lattice...
    assert len(front) < 31
    # ...and pruned MES keeps (or beats — fewer arms converge faster) the
    # full-lattice score.
    assert pruned.s_sum > 0.95 * full.s_sum


@pytest.mark.benchmark(group="ablation-ext")
def test_drift_mechanism_ablation(benchmark):
    clear = generate_video("abl/clear", scaled(2500), "clear", seed=5)
    night = generate_video("abl/night", scaled(2500), "night", seed=6)
    video = compose_drifting_video("abl/cn", [clear, night], num_segments=8, seed=3)
    pool = nuscenes_detector_suite(m=3, seed=0)
    lidar = SimulatedLidar(seed=42)
    scoring = WeightedLogScore(0.5)
    cache = EvaluationStore()

    algorithms = {
        "MES": MES(gamma=5),
        "SW-MES": SWMES(window=max(len(video) // 4, 10), gamma=5),
        "D-MES": DMES(discount=0.999, gamma=5),
    }

    def run_all():
        results = {}
        for name, algorithm in algorithms.items():
            env = DetectionEnvironment(pool, lidar, scoring=scoring, store=cache)
            results[name] = algorithm.run(env, video.frames)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"mechanism": name, "s_sum": result.s_sum, "mean_AP": result.mean_true_ap}
        for name, result in results.items()
    ]
    print(banner("Extension — drift-adaptation mechanism ablation"))
    print(format_table(rows, precision=1))

    # All three drift-capable mechanisms land in the same band.
    values = [r.s_sum for r in results.values()]
    assert min(values) > 0.85 * max(values)


@pytest.mark.benchmark(group="ablation-ext")
def test_frame_skipping_ablation(benchmark):
    setup = standard_setup(
        "nusc-clear", trial=0, scale=0.2, m=3, max_frames=scaled(1200)
    )
    scoring = WeightedLogScore(0.5)
    cache = EvaluationStore()

    def run_all():
        env_plain = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=scoring, store=cache
        )
        plain = MES(gamma=5).run(env_plain, setup.frames)
        env_skip = DetectionEnvironment(
            list(setup.detectors), setup.reference, scoring=scoring, store=cache
        )
        skipped = FrameSkipper(
            MES(gamma=5), similarity_threshold=0.75, max_consecutive_skips=3
        ).run(env_skip, setup.frames)
        return plain, skipped

    plain, skipped = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {
            "variant": name,
            "s_sum": result.s_sum,
            "mean_AP": result.mean_true_ap,
            "charged_ms": result.total_charged_ms,
        }
        for name, result in (("MES", plain), ("skip(MES)", skipped))
    ]
    print(banner("Extension — similarity-based frame skipping (Section 3.2)"))
    print(format_table(rows, precision=1))

    # Skipping must save real cost...
    assert skipped.total_charged_ms < plain.total_charged_ms
    # ...without collapsing detection quality.
    assert skipped.mean_true_ap > 0.8 * plain.mean_true_ap
