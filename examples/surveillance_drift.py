#!/usr/bin/env python
"""Surveillance stream with concept drift: SW-MES vs MES (TUVI-CD).

Simulates a monitoring feed whose conditions switch abruptly between
clear and night segments (the paper's V_c&n construction: each source is
cut into segments which are shuffled together).  SW-MES forgets
observations older than its window and re-converges after every
breakpoint; MES relies on its subset-piggyback-refreshed statistics.
Both track the regime-matched specialist far better than any static
baseline (see EXPERIMENTS.md's Figure 7 discussion for how they compare
to each other at different horizons).

Run:  python examples/surveillance_drift.py
"""

from repro import MES, Oracle, SWMES, WeightedLogScore, compose_drifting_video
from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.sw_mes import suggested_window
from repro.simulation.detectors import SimulatedDetector
from repro.simulation.lidar import SimulatedLidar
from repro.simulation.profiles import make_profile
from repro.simulation.world import generate_video


def main() -> None:
    clear = generate_video("surv/clear", 2500, "clear", seed=11)
    night = generate_video("surv/night", 2500, "night", seed=12)
    stream = compose_drifting_video(
        "surv/c&n", [clear, night], num_segments=8, seed=7
    )
    print(
        f"stream: {len(stream)} frames, {stream.num_breakpoints} abrupt "
        f"drifts at {list(stream.breakpoints)[:6]}..."
    )

    pool = [
        SimulatedDetector(make_profile("yolov7-tiny", "clear"), seed=1),
        SimulatedDetector(make_profile("yolov7-tiny", "night"), seed=2),
        SimulatedDetector(make_profile("yolov7-tiny", "rainy"), seed=3),
    ]
    lidar = SimulatedLidar(seed=42)
    scoring = WeightedLogScore(accuracy_weight=0.5)
    cache = EvaluationStore()

    def run(algorithm):
        env = DetectionEnvironment(pool, lidar, scoring=scoring, store=cache)
        return algorithm.run(env, stream.frames)

    opt = run(Oracle())
    mes = run(MES(gamma=5))
    window = max(
        suggested_window(len(stream), stream.num_breakpoints), 10 * len(stream) // 50
    )
    sw = run(SWMES(window=window, gamma=5))

    print(f"\nwindow lambda = {window}")
    for name, result in (("OPT", opt), ("MES", mes), ("SW-MES", sw)):
        print(
            f"{name:7s} s_sum={result.s_sum:9.2f} "
            f"({result.s_sum / opt.s_sum * 100:5.1f}% of OPT)  "
            f"mean AP={result.mean_true_ap:.3f}"
        )

    # Show how often each algorithm picked the regime-matched specialist.
    def regime_match_rate(result):
        matches = 0
        for record in result.records:
            frame = stream[record.frame_index]
            specialist = f"yolov7-tiny-{frame.category.name}"
            if specialist in record.selected:
                matches += 1
        return matches / len(result.records)

    print(
        f"\nregime-matched specialist in selection: "
        f"MES {regime_match_rate(mes) * 100:.0f}%  "
        f"SW-MES {regime_match_rate(sw) * 100:.0f}%"
    )


if __name__ == "__main__":
    main()
