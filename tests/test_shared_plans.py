"""Tick-wide multi-query optimization: fingerprints, the shared-subplan
pipeline, fused effect aggregation, and cache-invalidation interactions.

The load-bearing property is end-to-end equivalence: a world ticked through
the shared pipeline (``use_mqo=True``, the default) must produce exactly
the combined effects and post-tick state of the per-query path
(``use_mqo=False``), across workloads that mix batch, incremental,
index-probe and transactional execution.
"""

from __future__ import annotations

import random

import pytest

from repro import ExecutionMode
from repro.engine.aggregates import make_accumulator
from repro.engine.algebra import Join, Project, Select, TableScan
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor, TickQuerySpec
from repro.engine.expressions import col, lit
from repro.engine.indexes.sorted_index import SortedIndex
from repro.engine.operators import EffectSinkOp
from repro.engine.optimizer.mqo import build_tick_plan, fingerprint_plan
from repro.runtime.debug.inspector import TickInspector
from repro.runtime.effects import EffectStore
from repro.runtime.world import GameWorld
from repro.sgl.ir import EffectAssignment
from repro.workloads import build_rts_world
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.traffic import build_traffic_world


def _config(**flags) -> EngineConfig:
    """The ``REPRO_ENGINE_PRESET`` config with *flags* changed, so the
    fastest CI leg keeps compiled kernels under every override."""
    return EngineConfig.from_env().replace(**flags)


def _normalized(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


# ------------------------------------------------------------------------------------
# fingerprints
# ------------------------------------------------------------------------------------


def _filtered_scan(alias: str, threshold: float):
    return Select(TableScan("unit", alias), col(f"{alias}.x").gt(lit(threshold)))


class TestFingerprints:
    def test_alias_canonicalization(self):
        fp_a, aliases_a = fingerprint_plan(_filtered_scan("a", 10.0))
        fp_b, aliases_b = fingerprint_plan(_filtered_scan("b", 10.0))
        assert fp_a == fp_b
        assert aliases_a == ("a",) and aliases_b == ("b",)

    def test_different_predicates_differ(self):
        fp_a, _ = fingerprint_plan(_filtered_scan("a", 10.0))
        fp_b, _ = fingerprint_plan(_filtered_scan("a", 20.0))
        assert fp_a != fp_b

    def test_select_chain_folds_and_conjuncts_sort(self):
        p1 = col("a.x").gt(lit(1))
        p2 = col("a.y").gt(lit(2))
        chained = Select(Select(TableScan("unit", "a"), p1), p2)
        merged_one_way = Select(TableScan("unit", "a"), p1.and_(p2))
        merged_other_way = Select(TableScan("unit", "a"), p2.and_(p1))
        assert fingerprint_plan(chained)[0] == fingerprint_plan(merged_one_way)[0]
        assert fingerprint_plan(merged_one_way)[0] == fingerprint_plan(merged_other_way)[0]

    def test_join_with_different_aliases_matches(self):
        def joined(left_alias, right_alias):
            return Join(
                TableScan("unit", left_alias),
                TableScan("unit", right_alias),
                col(f"{left_alias}.id").eq(col(f"{right_alias}.id")),
            )

        assert fingerprint_plan(joined("a", "b"))[0] == fingerprint_plan(joined("p", "q"))[0]
        # Flipping which side a column comes from must NOT match.
        swapped = Join(
            TableScan("unit", "a"),
            TableScan("other", "b"),
            col("a.id").eq(col("b.id")),
        )
        assert fingerprint_plan(joined("a", "b"))[0] != fingerprint_plan(swapped)[0]


class TestBuildTickPlan:
    def test_duplicate_plans_share_one_maximal_subplan(self):
        plans = [
            (f"q{i}", Project(_filtered_scan("a", 5.0), {"v": col("a.x")}))
            for i in range(3)
        ]
        tick_plan = build_tick_plan(plans)
        # Identical whole plans: only the maximal subtree survives pruning
        # (its nested select/scan candidates collapse into it).
        assert len(tick_plan.shared) == 1
        assert tick_plan.shared[0].consumers == 3
        assert tick_plan.evaluations_saved == 2
        for entry in tick_plan.entries:
            assert entry.shared_refs == (tick_plan.shared[0].fingerprint,)

    def test_no_sharing_for_distinct_queries(self):
        plans = [
            ("q0", Project(_filtered_scan("a", 5.0), {"v": col("a.x")})),
            ("q1", Project(_filtered_scan("a", 99.0), {"v": col("a.x")})),
        ]
        tick_plan = build_tick_plan(plans)
        assert tick_plan.shared == []
        assert [e.rewritten for e in tick_plan.entries] == [p for _, p in plans]


# ------------------------------------------------------------------------------------
# the executor pipeline
# ------------------------------------------------------------------------------------


def _two_shared_queries(threshold=25.0):
    """Two distinct projections over the same filtered-scan prefix."""
    plans = []
    for name in ("health", "range"):
        plans.append(
            Project(
                Select(
                    TableScan("unit", "a"),
                    col("a.x").gt(lit(threshold)).and_(col("a.health").gt(lit(10))),
                ),
                {"__target__": col("a.id"), "__value__": col(f"a.{name}")},
            )
        )
    return plans


class TestExecuteTick:
    def test_rows_match_per_query_execution(self, unit_catalog):
        plans = _two_shared_queries()
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        pipeline_exec = Executor(unit_catalog, _config(use_incremental=False))
        plain_exec = Executor(unit_catalog, _config(use_incremental=False))
        results = pipeline_exec.execute_tick(specs)
        for plan, result in zip(plans, results):
            assert result.rows is not None
            assert _normalized(result.rows) == _normalized(plain_exec.execute(plan).rows)
        assert pipeline_exec.last_tick_stats["shared_subplans"] == 1
        assert pipeline_exec.last_tick_stats["evaluations_saved"] == 1

    def test_alias_renames_served_from_shared_result(self, unit_catalog):
        def query(alias):
            return Project(
                Select(TableScan("unit", alias), col(f"{alias}.x").gt(lit(40.0))),
                {"__target__": col(f"{alias}.id"), "__value__": col(f"{alias}.health")},
            )

        plans = [query("a"), query("b")]
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        executor = Executor(unit_catalog, _config(use_incremental=False))
        results = executor.execute_tick(specs)
        assert executor.last_tick_stats["shared_subplans"] == 1
        assert _normalized(results[0].rows) == _normalized(results[1].rows)
        plain = Executor(unit_catalog, _config(use_incremental=False))
        assert _normalized(results[1].rows) == _normalized(plain.execute(plans[1]).rows)

    def test_sink_fusion_matches_store_fold(self, unit_catalog):
        plan = Project(
            Select(TableScan("unit", "a"), col("a.x").gt(lit(30.0))),
            {"__target__": col("a.player"), "__value__": col("a.health")},
        )
        executor = Executor(unit_catalog, _config(use_incremental=False))
        [result] = executor.execute_tick(
            [TickQuerySpec(key="q", plan=plan, combinator="sum")]
        )
        assert result.partials is not None and result.rows is None
        rows = Executor(unit_catalog, _config(use_incremental=False)).execute(plan).rows
        expected: dict = {}
        counts: dict = {}
        for row in rows:
            expected[row["__target__"]] = expected.get(row["__target__"], 0) + row["__value__"]
            counts[row["__target__"]] = counts.get(row["__target__"], 0) + 1
        assert {t: acc.result() for t, acc, _ in result.partials} == expected
        assert {t: n for t, _, n in result.partials} == counts

    def test_mutation_between_ticks_not_served_stale(self, unit_catalog):
        plans = _two_shared_queries()
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        executor = Executor(unit_catalog, _config(use_incremental=False))
        before = executor.execute_tick(specs)
        table = unit_catalog.table("unit")
        for rowid in list(table.row_ids()):
            table.update(rowid, {"x": 0.0})  # nothing passes x > 25 anymore
        after = executor.execute_tick(specs)
        assert all(len(result.rows) > 0 for result in before)
        assert all(result.rows == [] for result in after)

    def test_invalidate_plans_rebuilds_pipeline_and_keeps_results_fresh(
        self, unit_catalog
    ):
        plans = _two_shared_queries()
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        executor = Executor(unit_catalog, _config(use_incremental=False))
        first = executor.execute_tick(specs)
        # Catalog shape change mid-run: a new index over the filter column.
        table = unit_catalog.table("unit")
        table.attach_index("by_x", SortedIndex("x"))
        executor.invalidate_plans()
        assert executor._tick_pipeline is None
        second = executor.execute_tick(specs)
        for a, b in zip(first, second):
            assert _normalized(a.rows) == _normalized(b.rows)


class TestIncrementalInteraction:
    def test_view_not_stale_across_invalidate_plans(self, unit_catalog):
        from repro.engine.algebra import Aggregate, AggregateSpec

        plan = Aggregate(
            Select(TableScan("unit"), col("x").gt(lit(25.0))),
            ["player"],
            [AggregateSpec("n", "count")],
        )
        executor = Executor(unit_catalog)
        assert executor.register_incremental(plan)
        executor.execute(plan)
        executor.invalidate_plans()
        # The view must survive a plan invalidation (documented) but never
        # serve rows computed before subsequent churn.
        table = unit_catalog.table("unit")
        for rowid in list(table.row_ids())[:40]:
            table.update(rowid, {"x": 0.0})
        fresh = executor.execute(plan).rows
        recomputed = Executor(unit_catalog, _config(use_incremental=False)).execute(plan).rows
        assert _normalized(fresh) == _normalized(recomputed)
        assert executor.incremental_view(plan) is not None
        report = {r["plan"]: r for r in executor.cache_report()}
        assert any(r["incremental"] for r in report.values())

    def test_execute_tick_serves_incremental_views(self, unit_catalog):
        plan = _two_shared_queries()[0]
        executor = Executor(unit_catalog)
        assert executor.register_incremental(plan)
        [result] = executor.execute_tick([TickQuerySpec(key="q", plan=plan)])
        view = executor.incremental_view(plan)
        assert view is not None and view.stats()["full_refreshes"] >= 1
        plain = Executor(unit_catalog, _config(use_incremental=False))
        assert _normalized(result.rows) == _normalized(plain.execute(plan).rows)
        # Sink fusion composes with the view path too.
        [fused] = executor.execute_tick(
            [TickQuerySpec(key="q", plan=plan, combinator="sum")]
        )
        assert fused.partials is not None


# ------------------------------------------------------------------------------------
# the effect sink and the store's partial interface
# ------------------------------------------------------------------------------------


CLASSES_SOURCE = """
class Unit {
  state:
    number x = 0;
  effects:
    number damage : sum;
    number nearest : min;
    set seen : union;
    number speed : avg;
}
"""


def _store():
    world = GameWorld(CLASSES_SOURCE)
    return EffectStore({decl.name: decl for decl in world.program.classes})


class TestEffectPartials:
    @pytest.mark.parametrize(
        "combinator,effect,values",
        [
            ("sum", "damage", [1, 2, None, 3]),
            ("min", "nearest", [5, None, 2, 9]),
            ("avg", "speed", [1.5, 2.5, None]),
            ("union", "seen", [frozenset({1}), frozenset({2, 3}), 4]),
        ],
    )
    def test_add_partial_matches_row_at_a_time(self, combinator, effect, values):
        row_store = _store()
        for value in values:
            row_store.add(EffectAssignment("Unit", 7, effect, value))
        fused_store = _store()
        partial = make_accumulator(combinator)
        for value in values:
            partial.add(value)
        fused_store.add_partial("Unit", 7, effect, partial, len(values))
        assert row_store.combine().values == fused_store.combine().values
        assert row_store.combine().assignment_counts == fused_store.combine().assignment_counts

    def test_partial_with_wrong_combinator_raises(self):
        from repro.engine.errors import ExecutionError

        store = _store()
        partial = make_accumulator("choose")  # declaration says sum
        partial.add(5)
        with pytest.raises(ExecutionError, match="requires 'sum'"):
            store.add_partial("Unit", 1, "damage", partial, 1)

    def test_partial_merges_with_existing_assignments(self):
        store = _store()
        store.add(EffectAssignment("Unit", 1, "damage", 10))
        partial = make_accumulator("sum")
        partial.add(5)
        partial.add(7)
        store.add_partial("Unit", 1, "damage", partial, 2)
        combined = store.combine()
        assert combined.value("Unit", 1, "damage") == 22
        assert combined.assignment_counts[("Unit", 1)]["damage"] == 3

    def test_effect_sink_operator_row_and_batch_paths(self, unit_catalog):
        plan = Project(
            Select(TableScan("unit", "a"), col("a.x").gt(lit(0.0))),
            {"__target__": col("a.player"), "__value__": col("a.health")},
        )
        for use_batch in (True, False):
            executor = Executor(unit_catalog, _config(use_batch=use_batch, use_incremental=False))
            physical = executor.prepare(plan).physical
            sink = EffectSinkOp(physical, "max", "__target__", "__value__")
            partials = dict(
                (target, acc.result()) for target, acc, _ in sink.partials()
            )
            rows = executor.execute(plan).rows
            expected: dict = {}
            for row in rows:
                expected[row["__target__"]] = max(
                    expected.get(row["__target__"], float("-inf")), row["__value__"]
                )
            assert partials == expected


# ------------------------------------------------------------------------------------
# whole-world equivalence: mqo on vs off
# ------------------------------------------------------------------------------------


def _assert_worlds_equal(world_a, world_b, tick):
    for class_name in world_a.class_names():
        assert world_a.objects(class_name) == world_b.objects(class_name), (
            f"tick {tick}: {class_name} state diverged"
        )
    assert world_a.last_effects.values == world_b.last_effects.values, f"tick {tick}"
    assert (
        world_a.last_effects.assignment_counts
        == world_b.last_effects.assignment_counts
    ), f"tick {tick}"


class TestWorldEquivalence:
    def test_rts_world(self):
        # Defaults exercise batch + incremental + auto-index paths; the
        # advisor's mid-run index creation also exercises pipeline rebuild
        # after invalidate_plans().
        world_mqo = build_rts_world(80, mode=ExecutionMode.COMPILED, config=_config(use_mqo=True))
        world_plain = build_rts_world(
            80, mode=ExecutionMode.COMPILED, config=_config(use_mqo=False)
        )
        for tick in range(6):
            report = world_mqo.tick()
            world_plain.tick()
            _assert_worlds_equal(world_mqo, world_plain, tick)
        assert report.shared_subplans >= 1
        assert report.fused_effect_rows > 0

    def test_traffic_world(self):
        world_mqo = build_traffic_world(
            60, mode=ExecutionMode.COMPILED, config=_config(use_mqo=True)
        )
        world_plain = build_traffic_world(
            60, mode=ExecutionMode.COMPILED, config=_config(use_mqo=False)
        )
        for tick in range(5):
            world_mqo.tick()
            world_plain.tick()
            _assert_worlds_equal(world_mqo, world_plain, tick)

    def test_marketplace_world_transactional(self):
        world_mqo = build_marketplace_world(
            40, mode=ExecutionMode.COMPILED, config=_config(use_mqo=True)
        )
        world_plain = build_marketplace_world(
            40, mode=ExecutionMode.COMPILED, config=_config(use_mqo=False)
        )
        for tick in range(4):
            report = world_mqo.tick()
            world_plain.tick()
            _assert_worlds_equal(world_mqo, world_plain, tick)
            assert (
                report.transactions_committed
                == world_plain.reports[-1].transactions_committed
            )

    def test_order_sensitive_and_multitick_scripts(self):
        source = """
class Npc {
  state:
    number x = 0;
  effects:
    number tag : first;
    set log : collect;
    number mark : last;
}

script tagger(Npc self) {
  accum number seen with sum over Npc other from NPC {
    if (other.x >= x - 5 && other.x <= x + 5) {
      other.tag <- x;
      other.log <- x;
      seen <- 1;
    }
  } in {
  }
}

script phaser(Npc self) {
  mark <- 1;
  waitNextTick;
  mark <- 2;
}
"""

        def build(use_mqo):
            world = GameWorld(source, config=_config(use_mqo=use_mqo))
            world.add_update_rule("Npc", "x", lambda state, effects: state["x"])
            rng = random.Random(3)
            world.spawn_many("Npc", [{"x": rng.uniform(0, 30)} for _ in range(25)])
            return world

        world_mqo, world_plain = build(True), build(False)
        for tick in range(4):
            world_mqo.tick()
            world_plain.tick()
            _assert_worlds_equal(world_mqo, world_plain, tick)


# ------------------------------------------------------------------------------------
# satellites: stable incremental memoization, degraded transactions, counters
# ------------------------------------------------------------------------------------


class TestSatellites:
    def test_incremental_consideration_keyed_on_stable_identity(self):
        world = build_rts_world(10, mode=ExecutionMode.COMPILED)
        calls = []
        original = world.executor.register_incremental
        world.executor.register_incremental = lambda plan: calls.append(plan) or original(plan)
        query = world.compiled.script("engage").all_queries()[0]
        world._maybe_register_incremental(query)
        world._maybe_register_incremental(query)
        assert len(calls) == 1
        assert query.query_id in world._incremental_considered

    def test_degraded_transactions_combine_once(self, monkeypatch):
        from repro.workloads.marketplace import MARKET_SOURCE

        # No transaction engine: atomic blocks degrade to plain effects.
        world = GameWorld(MARKET_SOURCE, mode=ExecutionMode.COMPILED)
        seller = world.spawn("Trader", is_seller=1, gold=0.0, stock=5, price=10.0)
        world.spawn("Trader", is_seller=0, gold=50.0, stock=0, price=10.0, vendor=seller)

        combine_calls = []
        original_combine = EffectStore.combine

        def counting_combine(self):
            combine_calls.append(self)
            return original_combine(self)

        monkeypatch.setattr(EffectStore, "combine", counting_combine)
        world.tick()
        assert len(combine_calls) == 1
        # The degraded assignments landed in the single combine.
        assert world.last_effects.value("Trader", seller, "gold_delta") == 10.0
        assert world.last_effects.value("Trader", seller, "stock_delta") == -1

    def test_tick_report_counters_and_inspector(self):
        world = build_rts_world(40, mode=ExecutionMode.COMPILED)
        first = world.tick()
        second = world.tick()
        assert first.plan_cache_misses > 0
        assert second.plan_cache_hits > 0 and second.plan_cache_misses == 0
        assert second.advisor_seconds >= 0.0
        assert second.total_seconds >= (
            second.effect_step_seconds
            + second.update_step_seconds
            + second.reactive_seconds
        )
        inspector = TickInspector(world)
        counters = inspector.tick_counters()
        assert counters["plan_cache_hits"] == second.plan_cache_hits
        assert counters["advisor_seconds"] == second.advisor_seconds
        assert counters["shared_subplans"] == second.shared_subplans
        sharing = inspector.sharing_report()
        assert sharing["queries"] == 4  # count_neighbours + engage's 3 sites
        assert sharing["fused_queries"], sharing
