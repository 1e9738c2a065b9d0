"""Figure 10: where MES's selections land in the <a_bar, 1-c_hat> plane.

Runs MES on V_nusc at three weight combinations and reports, per ensemble,
its scatter position and how often MES selected it.  Shape targets from
Section 5.7.2: with w2 > w1 the selection mass sits on fast ensembles
(high 1-c_hat, the plot's lower right); as w1 grows the mass moves toward
accurate ensembles (high a_bar, the upper left).
"""

import pytest
from benchmarks.common import banner, scaled

from repro.core.environment import DetectionEnvironment, EvaluationStore
from repro.core.mes import MES
from repro.core.scoring import WeightedLogScore
from repro.runner.experiment import standard_setup
from repro.runner.reporting import format_table

WEIGHTS = (0.1, 0.5, 0.9)


@pytest.mark.benchmark(group="fig10")
def test_fig10_selection_distribution(benchmark):
    setup = standard_setup(
        "nusc", trial=0, scale=0.2, m=5, max_frames=scaled(2000)
    )
    cache = EvaluationStore()

    def run_all():
        per_weight = {}
        scatter = {}
        for w1 in WEIGHTS:
            scoring = WeightedLogScore(accuracy_weight=w1)
            env = DetectionEnvironment(
                list(setup.detectors),
                setup.reference,
                scoring=scoring,
                store=cache,
            )
            result = MES(gamma=5).run(env, setup.frames)
            per_weight[w1] = result.selection_counts()
            if not scatter:
                # Ensemble positions (weight-independent): mean AP and cost.
                totals = {key: [0.0, 0.0] for key in env.all_ensembles}
                for frame in setup.frames[:: max(len(setup.frames) // 300, 1)]:
                    batch = env.evaluate(frame, env.all_ensembles, charge=False)
                    for key, ev in batch.evaluations.items():
                        totals[key][0] += ev.true_ap
                        totals[key][1] += ev.normalized_cost
                count = len(setup.frames[:: max(len(setup.frames) // 300, 1)])
                scatter = {
                    key: (ap / count, 1.0 - c / count)
                    for key, (ap, c) in totals.items()
                }
        return per_weight, scatter

    per_weight, scatter = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for key, (a_bar, one_minus_c) in sorted(
        scatter.items(), key=lambda kv: -kv[1][0]
    ):
        rows.append(
            {
                "ensemble": "+".join(n.split("-")[-1] for n in key),
                "a_bar": a_bar,
                "1-c_hat": one_minus_c,
                **{
                    f"sel@w1={w1}": per_weight[w1].get(key, 0)
                    for w1 in WEIGHTS
                },
            }
        )
    print(banner("Figure 10 — MES selection distribution (nusc, m=5)"))
    print(format_table(rows))

    def weighted_mean(w1, axis):
        counts = per_weight[w1]
        total = sum(counts.values())
        return (
            sum(scatter[key][axis] * count for key, count in counts.items())
            / total
        )

    # Selection mass moves toward accuracy as w1 grows...
    assert weighted_mean(0.9, 0) > weighted_mean(0.1, 0)
    # ...and toward speed as w2 grows.
    assert weighted_mean(0.1, 1) > weighted_mean(0.9, 1)
