"""Tests for the adaptive (state-switching) query optimizer."""

from __future__ import annotations

import pytest

from repro.engine import (
    Aggregate,
    AggregateSpec,
    AdaptiveQueryManager,
    ExecutionFeedback,
    Join,
    Select,
    TableScan,
    and_all,
    col,
)
from repro.workloads.state_switching import load_state, make_state_catalog


def fig2_plan():
    join = Join(TableScan("unit", alias="self"), TableScan("unit", alias="u"), None, how="cross")
    predicate = and_all(
        [
            col("u.x").ge(col("self.x") - col("self.range")),
            col("u.x").le(col("self.x") + col("self.range")),
            col("u.y").ge(col("self.y") - col("self.range")),
            col("u.y").le(col("self.y") + col("self.range")),
        ]
    )
    return Aggregate(Select(join, predicate), ["self.id"], [AggregateSpec("cnt", "count")])


class TestAdaptiveOptimizer:
    def test_compiles_per_state_and_switches_on_hint(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 200)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        load_state(catalog, "fighting", 200)
        manager.compile_for_state("fighting")
        assert set(manager.states) == {"exploring", "fighting"}
        manager.switch_to("exploring")
        state = manager.record_execution(ExecutionFeedback(rows=200, runtime=0.01, state_hint="fighting"))
        assert state == "fighting"
        assert manager.switch_count >= 1

    def test_drift_triggers_replan(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 150)
        manager = AdaptiveQueryManager(catalog, fig2_plan(), switch_cooldown=1)
        manager.compile_for_state("exploring")
        replans_before = manager.replan_count
        # Observed cardinality wildly different from the estimate -> replan.
        estimated = manager.current_plan().estimated.cardinality
        manager.record_execution(ExecutionFeedback(rows=int(estimated * 50) + 100, runtime=0.01))
        assert manager.replan_count > replans_before

    def test_report_structure(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 50)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        report = manager.report()
        assert report["current_state"] == "exploring"
        assert "exploring" in report["states"]

    def test_unknown_state_switch_raises(self):
        catalog = make_state_catalog()
        load_state(catalog, "exploring", 50)
        manager = AdaptiveQueryManager(catalog, fig2_plan())
        manager.compile_for_state("exploring")
        with pytest.raises(KeyError):
            manager.switch_to("bogus")
