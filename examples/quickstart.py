#!/usr/bin/env python
"""Quickstart: select detector ensembles for a short night-driving video.

Builds a synthetic nuScenes-like night video, a pool of three YOLOv7-tiny
detectors specialized on different domains, and a LiDAR reference model,
then runs MES and prints what it selected and how it compares to always
using the full ensemble.

Run:  python examples/quickstart.py
"""

from repro import BruteForce, MES, WeightedLogScore
from repro.runner import make_environment, standard_setup


def main() -> None:
    # A 300-frame night video plus the m=3 detector pool (the paper's
    # Yolo-C / Yolo-N / Yolo-R trio) and a simulated LiDAR REF.
    setup = standard_setup("nusc-night", trial=0, scale=0.1, m=3, max_frames=300)
    scoring = WeightedLogScore(accuracy_weight=0.5)

    print(f"video: {len(setup.frames)} frames of {setup.label}")
    print(f"detectors: {[d.name for d in setup.detectors]}")
    print(f"reference: {setup.reference.name}\n")

    env = make_environment(setup, scoring=scoring)
    result = MES(gamma=5).run(env, setup.frames)

    print(f"MES   s_sum={result.s_sum:8.2f}  "
          f"mean AP={result.mean_true_ap:.3f}  "
          f"mean normalized cost={result.mean_normalized_cost:.3f}")

    counts = sorted(
        result.selection_counts().items(), key=lambda kv: -kv[1]
    )
    print("\nmost-selected ensembles:")
    for key, count in counts[:5]:
        members = " + ".join(name.split("-")[-1] for name in key)
        print(f"  {count:4d}x  {{{members}}}")

    # Contrast with brute force (always all three models).
    env_bf = make_environment(setup, scoring=scoring, cache=env.store)
    bf = BruteForce().run(env_bf, setup.frames)
    print(f"\nBF    s_sum={bf.s_sum:8.2f}  "
          f"mean AP={bf.mean_true_ap:.3f}  "
          f"mean normalized cost={bf.mean_normalized_cost:.3f}")
    print(f"\nMES improves the aggregate score by "
          f"{(result.s_sum / bf.s_sum - 1) * 100:.1f}% over brute force.")


if __name__ == "__main__":
    main()
