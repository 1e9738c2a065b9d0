"""Table 4: LRBP's prediction of the extra budget B_extra.

For several (dataset, initial budget) pairs, runs MES-B until the budget is
exhausted, fits LRBP on the observed (t, C_t) pairs, predicts the extra
budget needed to finish the video, then actually finishes the video and
compares.  The paper reports prediction errors generally within 10%.
"""

import pytest
from benchmarks.common import banner, scaled

from repro.core.environment import EvaluationStore
from repro.core.mes_b import LRBP, MESB
from repro.runner.experiment import make_environment, standard_setup
from repro.runner.reporting import format_table

GAMMA = 5

#: (dataset, initial budget in simulated ms)
CASES = (
    ("nusc", 25_000.0),
    ("nusc", 50_000.0),
    ("nusc-clear", 40_000.0),
    ("nusc-night", 30_000.0),
    ("nusc-rainy", 35_000.0),
)


@pytest.mark.benchmark(group="table4")
def test_table4_lrbp_predictions(benchmark):
    num_frames = scaled(3500)

    def run_all():
        rows = []
        for dataset, budget in CASES:
            setup = standard_setup(
                dataset, trial=0, scale=0.6, m=3, max_frames=num_frames
            )
            cache = EvaluationStore()
            env = make_environment(setup, store=cache)
            partial = MESB(gamma=GAMMA).run(
                env, setup.frames, budget_ms=budget
            )
            if partial.frames_processed >= len(setup.frames):
                continue  # budget finished the whole video; nothing to predict
            model = LRBP.from_result(partial, skip_initialization=GAMMA)
            predicted = model.predict_extra_budget(
                partial.frames_processed, len(setup.frames)
            )
            env_full = make_environment(setup, store=cache)
            full = MESB(gamma=GAMMA).run(env_full, setup.frames, budget_ms=1e12)
            actual = sum(
                record.charged_ms
                for record in full.records[partial.frames_processed :]
            )
            rows.append(
                {
                    "dataset": dataset,
                    "|V|": len(setup.frames),
                    "B (ms)": budget,
                    "|V_B|": partial.frames_processed,
                    "B_lrbp (ms)": predicted,
                    "B_extra (ms)": actual,
                    "error %": 100.0 * abs(predicted - actual) / actual,
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print(banner("Table 4 — LRBP extra-budget prediction"))
    print(format_table(rows, precision=1))

    assert rows, "every case finished within its budget; nothing predicted"
    errors = [row["error %"] for row in rows]
    # Paper shape: errors generally within 10%; allow modest slack at this
    # scale and require it on average.
    assert sum(errors) / len(errors) < 12.0
    assert max(errors) < 25.0
    # Larger initial budgets improve prediction on the same dataset.
    nusc_rows = [r for r in rows if r["dataset"] == "nusc"]
    if len(nusc_rows) == 2:
        small, large = sorted(nusc_rows, key=lambda r: r["B (ms)"])
        assert large["error %"] <= small["error %"] + 5.0
