"""``peek_best`` is the exhaustive true-score argmax, found with less work.

The exhaustive search (``tests/exhaustive_oracle.py``) is the oracle the
bound-ordered search is checked against: frame by frame (the whole
evaluation, bit for bit) and run by run (records, clock and fault
counters), over every dataset, every fault profile, both scoring
functions and w1 from 0.1 to 0.9.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import Oracle
from repro.core.environment import DetectionEnvironment, FrameEvaluationError
from repro.core.scoring import LinearScore, WeightedLogScore
from repro.engine.backends import SerialBackend
from repro.engine.resilience import ResilientBackend
from repro.engine.store import EvaluationStore
from repro.runner.experiment import dataset_keys, standard_setup
from repro.simulation.faults import FAULT_PROFILE_NAMES
from tests.exhaustive_oracle import ExhaustiveOracle, exhaustive_best

WEIGHTS = (0.1, 0.3, 0.5, 0.7, 0.9)
SCORES = (WeightedLogScore, LinearScore)
SCORINGS = [score(w1) for score in SCORES for w1 in WEIGHTS]
FRAMES = 20


def _setup(dataset, profile):
    return standard_setup(
        dataset,
        trial=0,
        scale=0.02,
        m=5,
        max_frames=FRAMES,
        seed=0,
        fault_profile=profile,
    )


def _env(setup, profile, scoring, store=None):
    """An environment over ``setup``; faulty trials get the CLI's backend."""
    backend = SerialBackend()
    if profile != "none":
        backend = ResilientBackend(backend)
    return DetectionEnvironment(
        list(setup.detectors),
        setup.reference,
        scoring=scoring,
        store=store if store is not None else EvaluationStore(),
        backend=backend,
    )


def _best_or_error(search, env, frame):
    try:
        return search(env, frame, env.all_ensembles)
    except FrameEvaluationError as exc:
        return str(exc)


@pytest.mark.parametrize("dataset", dataset_keys())
def test_peek_best_equals_argmax_on_every_frame(dataset):
    """Fault-free, every scoring: the same evaluation, bit for bit."""
    setup = _setup(dataset, "none")
    store = EvaluationStore()
    envs = [_env(setup, "none", scoring, store) for scoring in SCORINGS]
    for frame in setup.frames:
        for env in envs:
            best = env.peek_best(frame, env.all_ensembles)
            assert best == exhaustive_best(env, frame, env.all_ensembles)
            assert env.clock.total_ms == 0.0


@pytest.mark.parametrize("profile", FAULT_PROFILE_NAMES)
def test_peek_best_equals_argmax_under_faults(profile):
    """Two fresh copies of a faulty trial see the same faults per frame."""
    index = FAULT_PROFILE_NAMES.index(profile)
    dataset = dataset_keys()[index]
    scoring = SCORINGS[(3 * index) % len(SCORINGS)]
    setup = _setup(dataset, profile)
    pruned = _env(setup, profile, scoring)
    exhaustive = _env(_setup(dataset, profile), profile, scoring)
    found = 0
    for frame in setup.frames:
        best = _best_or_error(DetectionEnvironment.peek_best, pruned, frame)
        assert best == _best_or_error(exhaustive_best, exhaustive, frame)
        found += not isinstance(best, str)
    assert found > 0
    assert pruned.fault_stats() == exhaustive.fault_stats()
    assert pruned.clock.total_ms == exhaustive.clock.total_ms == 0.0


# Half the dataset x profile grid: each dataset under three profiles,
# each profile on three or four datasets.
_GRID = [
    (dataset, profile)
    for i, dataset in enumerate(dataset_keys())
    for j, profile in enumerate(FAULT_PROFILE_NAMES)
    if (i + j) % 2 == 0
]


@pytest.mark.parametrize(("dataset", "profile"), _GRID)
def test_oracle_runs_equal_exhaustive_runs(dataset, profile):
    """Whole OPT runs: records, clock and fault counters are identical.

    Each case takes the next (score, w1) pair, so the grid covers every
    pair on several datasets and profiles.
    """
    scoring = SCORINGS[_GRID.index((dataset, profile)) % len(SCORINGS)]
    setup = _setup(dataset, profile)
    pruned_env = _env(setup, profile, scoring)
    exhaustive_env = _env(_setup(dataset, profile), profile, scoring)
    pruned = Oracle().run(pruned_env, setup.frames)
    exhaustive = ExhaustiveOracle().run(exhaustive_env, setup.frames)
    assert pruned.records == exhaustive.records
    assert pruned_env.clock.snapshot() == exhaustive_env.clock.snapshot()
    assert pruned_env.fault_stats() == exhaustive_env.fault_stats()

