"""Unit tests for query planning and name binding."""

import pytest

from repro.core.baselines import BruteForce, Oracle
from repro.core.mes import MES
from repro.core.mes_b import MESB
from repro.core.sw_mes import SWMES
from repro.query.parser import parse_query
from repro.query.planner import PlanError, algorithm_registry, build_plan

VIDEOS = ["v"]
DETECTORS = ["m1", "m2"]
REFS = ["lidar"]


def plan(text):
    return build_plan(parse_query(text), VIDEOS, DETECTORS, REFS)


class TestBuildPlan:
    def test_binds_mes(self):
        p = plan(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES(m1, m2; lidar) WITH gamma=7)"
        )
        assert isinstance(p.algorithm, MES)
        assert p.algorithm.gamma == 7
        assert p.budget_ms is None

    def test_binds_sw_mes_with_window(self):
        p = plan(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING SW-MES(m1) WITH window=40)"
        )
        assert isinstance(p.algorithm, SWMES)
        assert p.algorithm.window == 40

    def test_sw_mes_requires_window(self):
        with pytest.raises(PlanError, match="window"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING SW-MES(m1))")

    @pytest.mark.parametrize(
        ("using", "key", "accepted"),
        [
            ("MES(m1; lidar) WITH gama=3", "gama", "['budget', 'gamma']"),
            ("BF(m1) WITH gamma=3", "gamma", "['budget']"),
        ],
        ids=["misspelt-key", "key-of-another-algorithm"],
    )
    def test_with_key_the_algorithm_does_not_take_rejected(
        self, using, key, accepted
    ):
        with pytest.raises(PlanError) as excinfo:
            plan(f"SELECT frameID FROM (PROCESS v PRODUCE frameID USING {using})")
        assert f"does not take WITH {key}; accepted: {accepted}" in str(
            excinfo.value
        )

    def test_mes_b_requires_budget(self):
        with pytest.raises(PlanError, match="budget"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES-B(m1))")

    def test_mes_b_budget_extracted(self):
        p = plan(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES-B(m1) WITH budget=5000)"
        )
        assert isinstance(p.algorithm, MESB)
        assert p.budget_ms == 5000.0

    def test_budget_applies_to_any_algorithm(self):
        p = plan(
            "SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1) WITH budget=100)"
        )
        assert isinstance(p.algorithm, BruteForce)
        assert p.budget_ms == 100.0

    @pytest.mark.parametrize(
        "budget", ["0", "0.0", "1" + "0" * 400], ids=["zero", "zero-point", "inf"]
    )
    def test_budget_must_be_positive_and_finite(self, budget):
        with pytest.raises(PlanError, match="budget must be a positive finite"):
            plan(
                "SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES-B(m1) "
                f"WITH budget={budget})"
            )

    def test_algorithm_names_case_insensitive(self):
        p = plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING opt(m1))")
        assert isinstance(p.algorithm, Oracle)

    def test_unknown_video(self):
        with pytest.raises(PlanError, match="unknown video"):
            build_plan(
                parse_query(
                    "SELECT frameID FROM (PROCESS ghost PRODUCE frameID USING BF(m1))"
                ),
                VIDEOS,
                DETECTORS,
                REFS,
            )

    def test_unknown_detector(self):
        with pytest.raises(PlanError, match="unknown detector"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(ghost))")

    def test_repeated_detector_rejected(self):
        with pytest.raises(PlanError, match="'m1' is listed more than once"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING MES(m1, m2, m1))")

    def test_unknown_reference(self):
        with pytest.raises(PlanError, match="unknown reference"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING BF(m1; radar))")

    def test_unknown_algorithm(self):
        with pytest.raises(PlanError, match="unknown algorithm"):
            plan("SELECT frameID FROM (PROCESS v PRODUCE frameID USING MAGIC(m1))")

    def test_registry_contains_paper_algorithms(self):
        names = algorithm_registry()
        for expected in ("mes", "mes-b", "sw-mes", "opt", "bf", "sgl", "rand", "ef"):
            assert expected in names
