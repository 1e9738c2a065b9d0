#!/usr/bin/env python
"""Fault tolerance: run MES over a pool with an unreliable detector.

Injects the ``flaky-first`` fault profile (the first detector raises
transient errors and spikes its latency) and a sustained outage, executes
MES through the resilient backend — immediate retries, a per-detector
circuit breaker, simulated-latency timeouts — and shows how the run
degrades gracefully instead of aborting: frames fall back to the healthy
subset, the breaker masks the dead arm, and the score stays close to the
fault-free baseline.

Run:  python examples/unreliable_detectors.py
"""

from repro import MES, WeightedLogScore
from repro.engine.backends import SerialBackend
from repro.engine.resilience import ResilientBackend
from repro.runner import make_environment, standard_setup


def run_profile(profile: str):
    setup = standard_setup(
        "nusc-night", trial=0, scale=0.05, m=3, max_frames=200,
        fault_profile=profile,
    )
    backend = None
    if profile != "none":
        backend = ResilientBackend(
            SerialBackend(), max_attempts=3, timeout_ms=2_000.0
        )
    env = make_environment(
        setup, scoring=WeightedLogScore(accuracy_weight=0.5), backend=backend
    )
    result = MES(gamma=5).run(env, setup.frames)
    return setup, env, result


def main() -> None:
    clean_setup, _, clean = run_profile("none")
    print(f"video: {len(clean_setup.frames)} frames of {clean_setup.label}")
    print(f"fault-free MES: s_sum={clean.s_sum:.2f}, "
          f"{clean.frames_processed} frames processed\n")

    for profile in ("flaky-first", "outage-first"):
        _, env, result = run_profile(profile)
        stats = env.fault_stats()
        retention = result.s_sum / clean.s_sum
        print(f"profile {profile!r}:")
        print(f"  s_sum={result.s_sum:.2f} "
              f"({retention:.0%} of fault-free)")
        print(f"  frames processed={result.frames_processed}, "
              f"degraded={result.frames_degraded}")
        print(f"  attempts={stats.attempts}  failures={stats.failures}  "
              f"retries={stats.retries}  recoveries={stats.recoveries}")
        print(f"  breaker: opened {stats.breaker_opens}x, "
              f"skipped {stats.breaker_skips} jobs")
        degraded = [r for r in result.records if r.degraded]
        if degraded:
            r = degraded[0]
            print(f"  e.g. frame {r.frame_index}: selected "
                  f"{'+'.join(n.split('-')[-1] for n in r.selected)} "
                  f"-> realized "
                  f"{'+'.join(n.split('-')[-1] for n in r.realized_key)}")
        print()

    print("No run aborted: failed members drop out per frame, the breaker")
    print("masks dead arms from the bandit, and billing covers only the")
    print("inference that actually happened.")


if __name__ == "__main__":
    main()
