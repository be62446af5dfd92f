"""Tests for physical operators, rewrites, join ordering and the planner."""

from __future__ import annotations

import pytest

from repro.engine import (
    Aggregate,
    AggregateSpec,
    Catalog,
    Column,
    DataType,
    EngineConfig,
    Executor,
    Join,
    PlanError,
    Planner,
    Project,
    Schema,
    Select,
    TableScan,
    Union,
    Values,
    and_all,
    col,
    lit,
)
from repro.engine.aggregates import combine_values, make_accumulator
from repro.engine.algebra import explain
from repro.engine.compile import KernelOp
from repro.engine.indexes import GridIndex, RangeTreeIndex, SortedIndex
from repro.engine.operators import (
    BatchBridgeOp,
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    RangeProbeJoinOp,
    TableScanOp,
    ValuesOp,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_order import extract_join_graph, reorder_joins
from repro.engine.optimizer.rules import apply_standard_rewrites, split_conjunctions


class TestAggregates:
    @pytest.mark.parametrize(
        "func,values,expected",
        [
            ("sum", [1, 2, 3], 6),
            ("count", [1, None, 3], 2),
            ("min", [4, 2, 9], 2),
            ("max", [4, 2, 9], 9),
            ("avg", [2, 4], 3),
            ("median", [5, 1, 3], 3),
            ("any", [False, True], True),
            ("all", [True, False], False),
            ("choose", [7, 3, 5], 3),
            ("first", [7, 3], 7),
            ("last", [7, 3], 3),
        ],
    )
    def test_combinators(self, func, values, expected):
        assert combine_values(func, values) == expected

    def test_identities_on_empty_input(self):
        assert combine_values("sum", []) == 0
        assert combine_values("count", []) == 0
        assert combine_values("any", []) is False
        assert combine_values("all", []) is True
        assert combine_values("union", []) == frozenset()
        assert combine_values("avg", []) is None

    def test_union_flattens_sets(self):
        assert combine_values("union", [{1, 2}, 3, frozenset({4})]) == frozenset({1, 2, 3, 4})

    def test_merge_partial_accumulators(self):
        a = make_accumulator("sum")
        b = make_accumulator("sum")
        for v in (1, 2):
            a.add(v)
        for v in (3, 4):
            b.add(v)
        a.merge(b)
        assert a.result() == 10
        avg_a, avg_b = make_accumulator("avg"), make_accumulator("avg")
        avg_a.add(2)
        avg_b.add(4)
        avg_a.merge(avg_b)
        assert avg_a.result() == 3


class TestOperators:
    def test_executor_end_to_end(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Project(
            Select(TableScan("unit"), col("player").eq(lit(0))),
            {"id": col("id"), "hp": col("health")},
        )
        result = executor.execute(plan)
        assert len(result) == 25
        assert set(result.rows[0]) == {"id", "hp"}

    def test_aggregate_group_by(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Aggregate(
            TableScan("unit"),
            ["player"],
            [AggregateSpec("n", "count"), AggregateSpec("hp", "sum", col("health"))],
        )
        rows = executor.execute(plan).rows
        assert len(rows) == 4
        assert sum(r["n"] for r in rows) == 100

    def test_global_aggregate_on_empty_input(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Aggregate(
            Select(TableScan("unit"), lit(False)), [], [AggregateSpec("n", "count")]
        )
        assert executor.execute(plan).scalar() == 0

    def test_sort_limit_distinct_union(self, unit_catalog):
        executor = Executor(unit_catalog)
        union = Union(Project(TableScan("unit"), {"p": col("player")}),
                      Project(TableScan("unit"), {"p": col("player")}))
        assert len(executor.execute(union)) == 200

    def test_values_and_cross_join(self, unit_catalog):
        executor = Executor(unit_catalog)
        schema = Schema([Column("k", DataType.NUMBER)])
        values = Values(schema, [{"k": 1}, {"k": 2}])
        plan = Join(values, Values(Schema([Column("j", DataType.NUMBER)]), [{"j": 7}]), None, how="cross")
        rows = executor.execute(plan).rows
        assert len(rows) == 2
        assert rows[0]["j"] == 7

    def test_cross_join_rejects_a_condition(self):
        # "cross" means "no condition": every lowering of a cross join is a
        # plain product, so an accepted condition would be lost.
        a, b = TableScan("unit", alias="a"), TableScan("unit", alias="b")
        with pytest.raises(PlanError, match="cross join"):
            Join(a, b, col("a.id").eq(col("b.id")), how="cross")

    def test_left_join_produces_nulls(self, unit_catalog):
        executor = Executor(unit_catalog)
        empty = Select(TableScan("unit", alias="b"), lit(False))
        plan = Join(TableScan("unit", alias="a"), empty, col("a.id").eq(col("b.id")), how="left")
        rows = executor.execute(plan).rows
        assert len(rows) == 100
        assert all(r["b.id"] is None for r in rows)

    def test_hash_join_matches_nested_loop(self, unit_catalog):
        table = unit_catalog.table("unit")
        schema_a = table.schema.qualify("a")
        schema_b = table.schema.qualify("b")
        scan_a = TableScanOp(table, schema_a, "a")
        scan_b = TableScanOp(table, schema_b, "b")
        condition = col("a.player").eq(col("b.player"))
        hash_rows = HashJoinOp(
            TableScanOp(table, schema_a, "a"),
            TableScanOp(table, schema_b, "b"),
            [col("a.player")],
            [col("b.player")],
            schema_a.concat(schema_b),
        ).rows()
        nl_rows = NestedLoopJoinOp(scan_a, scan_b, condition, schema_a.concat(schema_b)).rows()
        assert len(hash_rows) == len(nl_rows) == 2500

    def test_band_join_counts_match_brute_force(self, unit_catalog):
        table = unit_catalog.table("unit")
        rows = list(table.rows())
        radius = 10.0
        expected = sum(
            1
            for a in rows
            for b in rows
            if abs(a["x"] - b["x"]) <= radius and abs(a["y"] - b["y"]) <= radius
        )
        band = Join(
            TableScan("unit", alias="a"),
            TableScan("unit", alias="b"),
            and_all(
                [
                    col("b.x").ge(col("a.x") - lit(radius)),
                    col("b.x").le(col("a.x") + lit(radius)),
                    col("b.y").ge(col("a.y") - lit(radius)),
                    col("b.y").le(col("a.y") + lit(radius)),
                ]
            ),
        )
        executor = Executor(unit_catalog, EngineConfig.reference())
        physical = executor.prepare(band, cache=False).physical
        assert any(isinstance(op, RangeProbeJoinOp) for op in physical.walk())
        assert len(physical.rows()) == expected

    def test_filter_and_values_op_counts(self):
        schema = Schema([Column("v", DataType.NUMBER)])
        values = ValuesOp(schema, [{"v": i} for i in range(10)])
        filtered = FilterOp(values, col("v").ge(lit(5)))
        assert len(filtered.rows()) == 5
        assert filtered.rows_produced == 5
        assert "Filter" in filtered.explain()


class TestOptimizer:
    def fig2_plan(self):
        join = Join(
            TableScan("unit", alias="self"),
            TableScan("unit", alias="u"),
            None,
            how="cross",
        )
        predicate = and_all(
            [
                col("u.x").ge(col("self.x") - col("self.range")),
                col("u.x").le(col("self.x") + col("self.range")),
                col("u.y").ge(col("self.y") - col("self.range")),
                col("u.y").le(col("self.y") + col("self.range")),
            ]
        )
        return Aggregate(
            Select(join, predicate), ["self.id"], [AggregateSpec("cnt", "count")]
        )

    def test_split_and_pushdown(self, unit_catalog):
        plan = Select(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            and_all([col("a.health").gt(lit(50)), col("b.health").gt(lit(50))]),
        )
        rewritten = apply_standard_rewrites(plan, unit_catalog)
        text = explain(rewritten)
        # Both single-table filters must sit below the join after pushdown.
        join_line = next(i for i, line in enumerate(text.splitlines()) if "Join" in line)
        select_lines = [i for i, line in enumerate(text.splitlines()) if "Select" in line]
        assert all(i > join_line for i in select_lines)

    def test_pushdown_does_not_cross_wrong_side(self, unit_catalog):
        executor = Executor(unit_catalog)
        plan = Select(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            col("a.id").lt(col("b.id")),
        )
        rows = executor.execute(plan).rows
        table_rows = list(unit_catalog.table("unit").rows())
        expected = sum(
            1
            for a in table_rows
            for b in table_rows
            if a["player"] == b["player"] and a["id"] < b["id"]
        )
        assert len(rows) == expected

    def test_figure2_lowered_to_range_probe_join(self, unit_catalog):
        # Row-operator choice: with use_batch on the band join is a kernel.
        planner = Planner(unit_catalog, EngineConfig(use_batch=False))
        planned = planner.plan(self.fig2_plan())
        labels = planned.physical.explain()
        assert "RangeProbeJoin" in labels

    def test_figure2_results_correct(self, unit_catalog):
        executor = Executor(unit_catalog)
        rows = executor.execute(self.fig2_plan()).rows
        table_rows = list(unit_catalog.table("unit").rows())
        expected = {
            a["id"]: sum(
                1
                for b in table_rows
                if abs(a["x"] - b["x"]) <= a["range"] and abs(a["y"] - b["y"]) <= a["range"]
            )
            for a in table_rows
        }
        assert {r["self.id"]: r["cnt"] for r in rows} == expected

    def test_unoptimized_planner_still_correct(self, unit_catalog):
        plan = self.fig2_plan()
        fast_rows = {(r["self.id"], r["cnt"]) for r in Executor(unit_catalog).execute(plan).rows}
        # Lowered as written: no rewrites, no join reordering.
        unrewritten = Planner(unit_catalog).physical_planner.lower(plan)
        slow_rows = {(r["self.id"], r["cnt"]) for r in unrewritten.rows()}
        assert fast_rows == slow_rows

    def test_join_graph_extraction(self, unit_catalog):
        plan = Join(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            TableScan("unit", alias="c"),
            col("b.player").eq(col("c.player")),
        )
        graph = extract_join_graph(plan)
        assert graph is not None
        assert len(graph.relations) == 3
        assert len(graph.predicates) == 2

    def test_reorder_preserves_results(self, unit_catalog):
        cost_model = CostModel(unit_catalog)
        plan = Select(
            Join(
                Join(
                    TableScan("unit", alias="a"),
                    TableScan("unit", alias="b"),
                    col("a.player").eq(col("b.player")),
                ),
                TableScan("unit", alias="c"),
                col("b.id").eq(col("c.id")),
            ),
            col("a.health").gt(lit(90)),
        )
        reordered = reorder_joins(split_conjunctions(plan), unit_catalog, cost_model)
        lower = Planner(unit_catalog).physical_planner.lower
        assert len(lower(plan).rows()) == len(lower(reordered).rows())

    def test_constant_range_over_index_is_one_kernel_in_table_order(self, unit_catalog):
        """Only kernels plan indexes, and a constant-range Select is not an
        index plan: over a table with a covering index it is one scan
        kernel whose rows come out in table order, ``reference()``'s order
        (the units are not inserted in ``x`` order)."""
        unit_catalog.table("unit").attach_index("by_x", SortedIndex("x"))
        plan = Select(TableScan("unit"), and_all([col("x").ge(lit(10)), col("x").le(lit(40))]))
        executor = Executor(unit_catalog, EngineConfig())
        physical = executor.prepare(plan).physical
        assert isinstance(physical, BatchBridgeOp)
        assert isinstance(physical.batch_root, KernelOp)
        rows = executor.execute(plan).rows
        expected = Executor(unit_catalog, EngineConfig.reference()).execute(plan).rows
        assert rows == expected
        xs = [row["x"] for row in rows]
        assert len(xs) > 10 and xs != sorted(xs)
        report = executor.kernel_report()
        assert (report["compiled"], report["declined"], report["errors"]) == (1, 0, 0)

    @pytest.mark.parametrize(
        ("index", "predicate"),
        [
            (SortedIndex("x"), col("x").gt(lit(60))),
            (SortedIndex("x"), col("x").lt(lit(30))),
            (SortedIndex("x"), and_all([col("x").ge(lit(10)), col("x").le(lit(60)), col("player").eq(lit(1))])),
            (GridIndex(["x", "y"], cell_size=10.0), and_all([col("x").ge(lit(20)), col("y").lt(lit(50))])),
            (RangeTreeIndex(["x", "y"]), and_all([col("x").le(lit(70)), col("y").gt(lit(25))])),
        ],
        ids=["sorted-lower", "sorted-upper", "sorted-with-residual", "grid-2d", "range-tree-2d"],
    )
    def test_constant_range_over_every_index_kind_stays_in_table_order(
        self, unit_catalog, index, predicate
    ):
        """Whatever range-capable index covers the predicate, the Select is
        one scan kernel, and it keeps ``reference()``'s rows and order
        across a mutation that moves a row into the range."""
        table = unit_catalog.table("unit")
        table.attach_index("covering", index)
        plan = Select(TableScan("unit"), predicate)
        executor = Executor(unit_catalog, EngineConfig(use_incremental=False))
        reference = Executor(unit_catalog, EngineConfig.reference())
        assert isinstance(executor.prepare(plan).physical.batch_root, KernelOp)
        for _ in range(2):
            rows = executor.execute(plan).rows
            assert rows and rows == reference.execute(plan).rows
            table.update(next(table.row_ids()), {"x": 45.0, "y": 45.0, "player": 1})
        report = executor.kernel_report()
        assert (report["compiled"], report["declined"], report["errors"]) == (1, 0, 0)

    def test_cost_model_prefers_selective_first(self, unit_catalog):
        cost_model = CostModel(unit_catalog)
        scan = TableScan("unit")
        selective = Select(scan, col("id").eq(lit(3)))
        broad = Select(scan, col("x").ge(lit(0)))
        assert cost_model.cardinality(selective) < cost_model.cardinality(broad)

    def test_explain_includes_all_layers(self, unit_catalog):
        planner = Planner(unit_catalog)
        planned = planner.plan(Select(TableScan("unit"), col("health").gt(lit(50))))
        text = planned.explain()
        assert "logical" in text and "physical" in text and "estimated cost" in text
