"""Cross-query reuse: warm-store speedup of the materialized query stack.

The persistent :class:`~repro.query.matstore.MaterializedDetectionStore`
turns detector/REF inference and AP evaluation into a one-time charge: a
second engine (a fresh process, as far as state is concerned) running an
overlapping query answers every evaluation from disk and fuses only the
ensemble each frame serves.  This benchmark times a cold and a warm run
of the same MES query, asserts

* the warm run is at least 2x faster end-to-end,
* it performs **zero** detector and reference invocations (observability
  counters, not timing, are the witness), and
* its result rows are bit-identical to the cold run's,

and writes the measured frame rates and hit rate as JSON (default
``BENCH_query.json``, override with ``REPRO_BENCH_QUERY_JSON``) so CI can
archive the run and track the reuse payoff over time.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest
from benchmarks.common import banner, scaled

from repro.engine.backends import wall_timer
from repro.obs import Observability
from repro.query import QueryEngine
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.lidar import SimulatedLidar
from repro.simulation.profiles import make_profile
from repro.simulation.world import generate_video

#: Warm run must beat the cold run by at least this wall-clock factor.
MIN_WARM_SPEEDUP = 2.0

QUERY = (
    "SELECT frameID FROM (PROCESS bench PRODUCE frameID, Detections, score "
    "USING MES(yolov7-tiny-clear, yolov7-tiny-night, yolov7-tiny-rainy; "
    "lidar-ref) WITH gamma=2) WHERE COUNT('car') >= 1"
)


def _counter_total(obs: Observability, name: str) -> float:
    return sum(
        value
        for (counter, _), value in obs.snapshot().counters.items()
        if counter == name
    )


def _run_once(frames, mat_dir: Path):
    """One engine lifetime: register, execute, tear down.  Returns the
    result, the elapsed wall seconds, the obs facade and the matstore
    hit rate of this run.

    Model construction happens outside the timed section — loading a
    checkpoint is paid identically cold and warm.  Opening the store
    (reading every persisted segment) is inside: it is the warm run's
    real price of admission.
    """
    obs = Observability(level="metrics", timer=wall_timer)
    detectors = [
        SimulatedDetector(make_profile("yolov7-tiny", domain), seed=seed)
        for seed, domain in enumerate(("clear", "night", "rainy"), start=1)
    ]
    reference = SimulatedLidar(seed=42)
    start = time.perf_counter()
    with QueryEngine(obs=obs, materialize_dir=mat_dir) as engine:
        engine.register_video("bench", frames)
        for detector in detectors:
            engine.register_detector(detector)
        engine.register_reference(reference)
        result = engine.execute(QUERY)
        hit_rate = engine.matstore.stats().hit_rate
    elapsed = time.perf_counter() - start
    return result, elapsed, obs, hit_rate


@pytest.mark.benchmark(group="query")
def test_query_reuse_speedup(tmp_path):
    num_frames = scaled(120)
    frames = generate_video(
        "bench/query-reuse", num_frames=num_frames, category="clear", seed=11
    ).frames
    mat_dir = tmp_path / "mat"

    cold_result, cold_s, _, _ = _run_once(frames, mat_dir)
    warm_result, warm_s, warm_obs, warm_hit_rate = _run_once(frames, mat_dir)

    speedup = cold_s / warm_s
    detector_calls = _counter_total(
        warm_obs, "repro_detector_invocations_total"
    )
    reference_calls = _counter_total(
        warm_obs, "repro_reference_invocations_total"
    )

    payload = {
        "benchmark": "query_reuse",
        "frames": num_frames,
        "query": QUERY,
        "cold": {
            "seconds": round(cold_s, 4),
            "frames_per_sec": round(num_frames / cold_s, 2),
        },
        "warm": {
            "seconds": round(warm_s, 4),
            "frames_per_sec": round(num_frames / warm_s, 2),
            "materialization_hit_rate": round(warm_hit_rate, 4),
            "detector_invocations": detector_calls,
            "reference_invocations": reference_calls,
        },
        "speedup": round(speedup, 2),
    }
    out_path = Path(
        os.environ.get("REPRO_BENCH_QUERY_JSON", "BENCH_query.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    print(banner("Query reuse (cold vs warm materialized store)"))
    print(json.dumps(payload, indent=2))
    print(f"results written to {out_path}")

    assert warm_result.rows == cold_result.rows, (
        "warm store changed result bytes"
    )
    assert detector_calls == 0, "warm run paid detector inference"
    assert reference_calls == 0, "warm run paid reference inference"
    assert warm_hit_rate == 1.0, "warm run missed the materialized store"
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm speedup {speedup:.2f}x below the {MIN_WARM_SPEEDUP}x floor "
        f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s)"
    )
