#!/usr/bin/env python
"""Budget-constrained ingestion (TCVI): MES-B and LRBP budget prediction.

A video archive must be annotated within a fixed compute budget.  MES-B
selects ensembles frame by frame until the budget is exhausted; LRBP then
fits the observed (iteration, cumulative cost) line and predicts how much
extra budget finishing the archive would take — the paper's Table 4
workflow.

Run:  python examples/budgeted_ingestion.py
"""

from repro import LRBP, MESB, WeightedLogScore
from repro.core.environment import EvaluationStore
from repro.runner import make_environment, standard_setup


def main() -> None:
    setup = standard_setup("nusc-rainy", trial=0, scale=0.15, m=3, max_frames=1500)
    scoring = WeightedLogScore(accuracy_weight=0.5)
    cache = EvaluationStore()
    total_frames = len(setup.frames)
    gamma = 5

    budget_ms = 12_000.0
    env = make_environment(setup, scoring=scoring, store=cache)
    partial = MESB(gamma=gamma).run(env, setup.frames, budget_ms=budget_ms)
    print(
        f"budget B = {budget_ms:.0f} ms processed |V_B| = "
        f"{partial.frames_processed} of |V| = {total_frames} frames "
        f"(s_sum = {partial.s_sum:.1f})"
    )

    # LRBP: fit the cumulative-cost line (skipping the expensive
    # initialization prefix) and predict the extra budget.
    model = LRBP.from_result(partial, skip_initialization=gamma)
    predicted = model.predict_extra_budget(partial.frames_processed, total_frames)
    print(
        f"LRBP fit: {model.slope:.2f} ms/frame over "
        f"{model.num_points} points"
    )
    print(f"predicted extra budget B_lrbp  = {predicted:9.0f} ms")

    # Ground truth: run the same strategy to completion and measure what
    # the remaining frames actually cost.
    env_full = make_environment(setup, scoring=scoring, store=cache)
    full = MESB(gamma=gamma).run(env_full, setup.frames, budget_ms=1e12)
    actual = sum(
        record.charged_ms
        for record in full.records[partial.frames_processed :]
    )
    print(f"actual extra budget   B_extra  = {actual:9.0f} ms")
    error = abs(predicted - actual) / actual * 100
    print(f"prediction error: {error:.1f}%  (paper reports ~10% or less)")


if __name__ == "__main__":
    main()
