"""Unit tests for the cost model and simulated clock."""

import pytest

from repro.simulation.clock import SimulatedClock, ensembling_cost_ms


class TestCostModel:
    def test_ensembling_cost_linear_in_boxes(self):
        assert ensembling_cost_ms(0) == pytest.approx(0.05)
        assert ensembling_cost_ms(10) == pytest.approx(0.07)
        assert ensembling_cost_ms(20) - ensembling_cost_ms(10) == pytest.approx(
            ensembling_cost_ms(10) - ensembling_cost_ms(0)
        )

    def test_negative_boxes_rejected(self):
        with pytest.raises(ValueError):
            ensembling_cost_ms(-1)

    def test_ensembling_far_cheaper_than_inference(self):
        # The Eq. (1) premise: c^e << c_M even for large pools.
        assert ensembling_cost_ms(200) < 1.0 < 7.7


class TestSimulatedClock:
    def test_charges_accumulate(self):
        clock = SimulatedClock()
        clock.charge("detector", 10.0)
        clock.charge("detector", 5.0)
        clock.charge("reference", 2.0)
        clock.charge("ensembling", 1.0)
        clock.charge("overhead", 0.5)
        assert clock.detector_ms == 15.0
        assert clock.total_ms == pytest.approx(18.5)

    def test_billable_excludes_reference_and_overhead(self):
        clock = SimulatedClock()
        clock.charge("detector", 10.0)
        clock.charge("reference", 3.0)
        clock.charge("ensembling", 1.0)
        clock.charge("overhead", 2.0)
        assert clock.billable_ms == pytest.approx(11.0)

    def test_unknown_component(self):
        with pytest.raises(KeyError):
            SimulatedClock().charge("gpu", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            SimulatedClock().charge("detector", -1.0)

    @pytest.mark.parametrize("ms", [float("nan"), float("inf")])
    def test_non_finite_charge_rejected(self, ms):
        clock = SimulatedClock()
        clock.charge("detector", 2.0)
        with pytest.raises(ValueError, match="finite"):
            clock.charge("detector", ms)
        assert clock.detector_ms == 2.0

    def test_breakdown_sums_to_one(self):
        clock = SimulatedClock()
        clock.charge("detector", 90.0)
        clock.charge("reference", 9.0)
        clock.charge("ensembling", 0.5)
        clock.charge("overhead", 0.5)
        breakdown = clock.breakdown()
        assert sum(breakdown.values()) == pytest.approx(1.0)
        assert breakdown["detector"] == pytest.approx(0.9)

    def test_breakdown_empty_clock(self):
        assert set(SimulatedClock().breakdown().values()) == {0.0}

    def test_snapshot_and_reset(self):
        clock = SimulatedClock()
        clock.charge("detector", 1.0)
        snap = clock.snapshot()
        assert snap["detector"] == 1.0
        clock.reset()
        assert clock.total_ms == 0.0
