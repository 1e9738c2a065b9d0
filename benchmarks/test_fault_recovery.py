"""Fault recovery: MES score retention under a sustained detector outage.

The seed engine aborted a whole run on the first detector exception.  This
benchmark demonstrates that behaviour is gone and quantifies the cost of
degradation: with the ``outage-first`` profile the pool's first detector is
down for the *entire* video, yet MES — retrying, tripping the breaker and
falling back to healthy subsets — must retain at least 80% of its
fault-free ``s_sum``.

Results are written as JSON (``REPRO_FAULT_RECOVERY_JSON``, default
``fault_recovery.json``) so CI can archive the run as an artifact.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from benchmarks.common import banner, scaled

from repro.core.mes import MES
from repro.engine.backends import SerialBackend
from repro.engine.resilience import ResilientBackend
from repro.runner.experiment import make_environment, standard_setup

#: Minimum fraction of the fault-free s_sum MES must keep under outage.
RETENTION_FLOOR = 0.80

DATASET = "nusc-night"
M = 3
SEED = 17


def _mes_run(fault_profile: str):
    setup = standard_setup(
        dataset=DATASET,
        trial=0,
        scale=0.05,
        m=M,
        max_frames=scaled(150),
        seed=SEED,
        fault_profile=fault_profile,
    )
    backend = None
    if fault_profile != "none":
        backend = ResilientBackend(SerialBackend(), max_attempts=2)
    env = make_environment(setup, backend=backend)
    result = MES().run(env, setup.frames)
    return setup, env, result


@pytest.mark.benchmark(group="faults")
def test_fault_recovery():
    clean_setup, _, clean = _mes_run("none")
    faulty_setup, faulty_env, faulty = _mes_run("outage-first")
    assert len(faulty_setup.frames) == len(clean_setup.frames)

    # The seed engine's abort-on-first-exception is gone: a permanently
    # failing detector no longer truncates the run.
    assert faulty.frames_processed == len(faulty_setup.frames)
    assert faulty.frames_degraded > 0

    retention = faulty.s_sum / clean.s_sum
    stats = faulty_env.fault_stats()
    payload = {
        "benchmark": "fault_recovery",
        "dataset": DATASET,
        "m": M,
        "frames": len(faulty_setup.frames),
        "fault_profile": "outage-first",
        "s_sum_fault_free": round(clean.s_sum, 4),
        "s_sum_under_outage": round(faulty.s_sum, 4),
        "retention": round(retention, 4),
        "retention_floor": RETENTION_FLOOR,
        "frames_degraded": faulty.frames_degraded,
        "fault_stats": stats.as_dict(),
    }
    out_path = Path(
        os.environ.get("REPRO_FAULT_RECOVERY_JSON", "fault_recovery.json")
    )
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    print(banner("Fault recovery (MES under sustained outage)"))
    print(json.dumps(payload, indent=2))
    print(f"results written to {out_path}")

    assert stats.failures > 0, "the outage profile injected no faults"
    assert stats.breaker_opens > 0, "the breaker never tripped"
    assert retention >= RETENTION_FLOOR, (
        f"MES kept only {retention:.1%} of its fault-free s_sum "
        f"({faulty.s_sum:.2f} vs {clean.s_sum:.2f}); floor is "
        f"{RETENTION_FLOOR:.0%}"
    )
