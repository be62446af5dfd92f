"""Persistent index-backed spatial joins: planner, operators, advisor, deltas.

Covers the index-probing band kernel against its row-order oracle
(`IndexProbeJoinOp`, built directly: kernels are the only plans that probe
an index), its choice among registered `GridIndex` / `RangeTreeIndex` /
`SortedIndex` structures, the index advisor's create/evict policy, the
incremental delta-join's index probing for the unchanged side, and the
regression for `RangeProbeJoinOp`'s degenerate cell-size estimate.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.engine import (
    Catalog,
    Column,
    DataType,
    EngineConfig,
    Executor,
    IndexAdvisor,
    Join,
    Schema,
    Select,
    Table,
    TableScan,
    and_all,
    col,
    lit,
)
from repro.engine.compile import KernelOp
from repro.engine.indexes import GridIndex, RangeTreeIndex, SortedIndex
from repro.engine.operators import (
    BatchBridgeOp,
    DeltaJoinOp,
    IndexProbeJoinOp,
    RangeProbeJoinOp,
    ValuesOp,
)
from repro.engine.optimizer import Planner
from repro.engine.optimizer.adaptive import grid_cell_size
from repro.engine.optimizer.physical import PhysicalPlanner, _extract_range_probe, match_band_index
from repro.workloads import build_rts_world



#: The compiled target (kernels are the only plans that probe indexes)
#: and the row-path oracle, both without views.
KERNEL = EngineConfig(use_incremental=False)
ROW = EngineConfig(use_batch=False, use_incremental=False)


def _normalized(rows):
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


def _unit_schema() -> Schema:
    return Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
            Column("range", DataType.NUMBER),
            Column("health", DataType.NUMBER),
        ]
    )


def _make_catalog(n: int = 400, seed: int = 3, with_nulls: bool = False) -> Catalog:
    catalog = Catalog()
    table = catalog.create_table("unit", _unit_schema(), key="id")
    rng = random.Random(seed)
    for i in range(n):
        has_null = with_nulls and i % 17 == 0
        table.insert(
            {
                "id": i,
                "player": i % 2,
                "x": None if has_null else rng.uniform(0, 100),
                "y": rng.uniform(0, 100),
                "range": rng.choice([3, 5, 8]),
                "health": rng.randint(0, 100),
            }
        )
    return catalog


def band_plan(inner_filter=None):
    inner = TableScan("unit", alias="u")
    if inner_filter is not None:
        inner = Select(inner, inner_filter)
    join = Join(TableScan("unit", alias="self"), inner, None, how="cross")
    predicate = and_all(
        [
            col("u.x").ge(col("self.x") - col("self.range")),
            col("u.x").le(col("self.x") + col("self.range")),
            col("u.y").ge(col("self.y") - col("self.range")),
            col("u.y").le(col("self.y") + col("self.range")),
        ]
    )
    return Select(join, predicate)


def index_probe_join(catalog: Catalog, plan) -> IndexProbeJoinOp:
    """*plan*'s band join as :class:`IndexProbeJoinOp`, the row-order oracle
    of the index-probing band kernel, built the way the kernel takes the
    join: the optimized join's inner side probes the index covering it and
    the inner side's Select predicates run as residuals."""
    join = Planner(catalog, KERNEL).plan(plan).optimized
    assert isinstance(join, Join) and join.how == "inner", join
    dimensions, residual = _extract_range_probe(
        join.condition.conjuncts(),
        join.left.output_schema(catalog),
        join.right.output_schema(catalog),
    )
    table, index_name, alias, folded = match_band_index(catalog, join.right, dimensions)
    residual = [*residual, *folded]
    return IndexProbeJoinOp(
        PhysicalPlanner(catalog, ROW).lower(join.left),
        table,
        index_name,
        dimensions,
        join.output_schema(catalog),
        residual=and_all(residual) if residual else None,
        alias=alias,
    )


def _join_ops(executor: Executor, plan) -> list:
    return [op for op in executor.prepare(plan, cache=False).physical.walk()]


def _probed_indexes(executor: Executor, plan) -> list[str]:
    """Names of the indexes the plan's band kernels probe."""
    return [
        op.batch_root.index_probe[1]
        for op in _join_ops(executor, plan)
        if isinstance(op, BatchBridgeOp)
        and isinstance(op.batch_root, KernelOp)
        and op.batch_root.index_probe is not None
    ]


class TestIndexProbePlanning:
    """Which index the band kernel probes: kernels are the only plans
    that use one."""

    def test_grid_index_is_probed(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        assert _probed_indexes(Executor(catalog, KERNEL), band_plan()) == ["xy"]

    def test_range_tree_index_is_probed(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "tree", RangeTreeIndex(["x", "y"]))
        assert _probed_indexes(Executor(catalog, KERNEL), band_plan()) == ["tree"]

    def test_sorted_index_covers_one_dimension(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "by_x", SortedIndex("x"))
        assert _probed_indexes(Executor(catalog, KERNEL), band_plan()) == ["by_x"]

    def test_widest_coverage_wins(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "by_x", SortedIndex("x"))
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        assert _probed_indexes(Executor(catalog, KERNEL), band_plan()) == ["xy"]

    def test_no_index_falls_back_to_grid_rebuild(self):
        catalog = _make_catalog()
        ops = _join_ops(Executor(catalog, KERNEL), band_plan())
        kernels = [op.batch_root for op in ops if isinstance(op, BatchBridgeOp)]
        assert [type(k) for k in kernels] == [KernelOp]
        assert kernels[0].index_probe is None
        # The row path builds the transient grid too.
        row_ops = _join_ops(Executor(catalog, ROW), band_plan())
        assert any(isinstance(op, RangeProbeJoinOp) for op in row_ops)


class TestIndexProbeEquivalence:
    def _assert_equivalent(self, catalog, plan):
        kernel = Executor(catalog, KERNEL)
        assert _probed_indexes(kernel, plan) == list(catalog.table("unit").indexes)
        rows_indexed = index_probe_join(catalog, plan).rows()
        assert kernel.execute(plan, cache=False).rows == rows_indexed  # same order too
        rows_row = Executor(catalog, ROW).execute(plan, cache=False).rows
        assert _normalized(rows_indexed) == _normalized(rows_row)
        assert rows_indexed, "scenario produced no matches; test would be vacuous"

    def test_grid_index_equivalence_with_null_coordinates(self):
        catalog = _make_catalog(with_nulls=True)
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        self._assert_equivalent(catalog, band_plan())

    def test_sorted_index_equivalence(self):
        catalog = _make_catalog(with_nulls=True)
        catalog.create_index("unit", "by_x", SortedIndex("x"))
        self._assert_equivalent(catalog, band_plan())

    def test_inner_select_is_folded_into_residual(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        plan = band_plan(inner_filter=col("u.health").gt(lit(40)))
        self._assert_equivalent(catalog, plan)

    def test_equivalence_under_churn(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        table = catalog.table("unit")
        plan = band_plan()
        indexed = Executor(catalog, KERNEL)
        row = Executor(catalog, ROW)
        rng = random.Random(11)
        for tick in range(6):
            rowids = list(table.row_ids())
            for rowid in rng.sample(rowids, 8):
                table.update(rowid, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
            if tick % 2 == 0:
                table.insert(
                    {
                        "id": 10_000 + tick,
                        "player": 0,
                        "x": rng.uniform(0, 100),
                        "y": rng.uniform(0, 100),
                        "range": 5,
                        "health": 50,
                    }
                )
                table.delete(rng.choice(rowids))
            assert _normalized(indexed.execute(plan).rows) == _normalized(
                row.execute(plan).rows
            ), f"tick {tick}"


class TestEvictedIndexResilience:
    """Regression: plans can outlive the index they were built against —
    an incremental view's frozen full plan, or a cached plan raced by the
    advisor's eviction — and a full rebuild then resolved the dropped
    index by name and crashed the tick with CatalogError.  The operator
    now degrades (another covering index, else a per-probe row scan)."""

    def test_cached_plan_survives_index_drop(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        plan = band_plan()
        executor = Executor(catalog, KERNEL)
        expected = _normalized(
            Executor(catalog, ROW)
            .execute(plan)
            .rows
        )
        assert _normalized(executor.execute(plan).rows) == expected
        catalog.drop_index("unit", "xy")  # cached plan still names "xy"
        assert _normalized(executor.execute(plan).rows) == expected

    def test_incremental_full_rebuild_survives_index_drop(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        table = catalog.table("unit")
        plan = band_plan()
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        inc.execute(plan)  # seeds the view; its full plan probes "xy"
        catalog.drop_index("unit", "xy")
        # A bulk rewrite resets the change log, forcing the next refresh
        # through a full rebuild of the frozen full plan.
        table.restore(table.snapshot())
        ref = Executor(catalog, ROW)
        assert _normalized(inc.execute(plan).rows) == _normalized(ref.execute(plan).rows)


class TestStrictBandBounds:
    """Regression: strict (< / >) band conjuncts were consumed into the
    probe bounds and checked inclusively, so boundary rows the predicate
    excludes leaked into the result on every band-join path.  Strict
    conjuncts now stay in the residual."""

    def _catalog(self):
        catalog = Catalog()
        probers = catalog.create_table(
            "prober", Schema([Column("px", DataType.NUMBER)])
        )
        probers.insert({"px": 5.0})
        points = catalog.create_table("point", Schema([Column("x", DataType.NUMBER)]))
        points.insert_many({"x": float(i)} for i in range(10))
        catalog.create_index("point", "by_x", SortedIndex("x"))
        return catalog

    def _strict_plan(self):
        join = Join(TableScan("prober"), TableScan("point"), None, how="cross")
        predicate = and_all(
            [
                col("x").gt(col("px") - lit(2.0)),
                col("x").lt(col("px") + lit(2.0)),
            ]
        )
        return Select(join, predicate)

    def test_strict_bounds_exclude_boundary_rows_on_every_path(self):
        catalog = self._catalog()
        plan = self._strict_plan()
        expected = {4.0, 5.0, 6.0}  # strictly inside (3, 7)
        kernel = Executor(catalog, KERNEL)
        assert _probed_indexes(kernel, plan) == ["by_x"]
        assert {r["x"] for r in index_probe_join(catalog, plan).rows()} == expected
        for executor in (kernel, Executor(catalog, ROW)):
            assert {r["x"] for r in executor.execute(plan, cache=False).rows} == expected
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        assert {r["x"] for r in inc.execute(plan).rows} == expected
        # Maintain through a delta that crosses the strict boundary.
        probers = catalog.table("prober")
        probers.update(next(probers.row_ids()), {"px": 6.0})
        assert {r["x"] for r in inc.execute(plan).rows} == {5.0, 6.0, 7.0}
        catalog.drop_index("point", "by_x")  # the kernel's transient grid
        grid = Executor(catalog, KERNEL)
        assert _probed_indexes(grid, plan) == []
        assert {r["x"] for r in grid.execute(plan, cache=False).rows} == {5.0, 6.0, 7.0}

    def test_mixed_strict_and_inclusive_bounds(self):
        catalog = self._catalog()
        join = Join(TableScan("prober"), TableScan("point"), None, how="cross")
        predicate = and_all(
            [
                col("x").ge(col("px") - lit(2.0)),  # inclusive low
                col("x").lt(col("px") + lit(2.0)),  # strict high
            ]
        )
        plan = Select(join, predicate)
        for executor in (Executor(catalog, KERNEL), Executor(catalog, ROW)):
            assert {r["x"] for r in executor.execute(plan, cache=False).rows} == {
                3.0,
                4.0,
                5.0,
                6.0,
            }


class TestIndexAdvisor:
    def _run_band_query(self, executor, plan):
        executor.execute(plan, cache=False)

    def test_hot_band_join_creates_and_evicts_index(self):
        catalog = _make_catalog()
        advisor = IndexAdvisor(catalog, create_after=3, evict_after=5, min_table_rows=10)
        executor = Executor(
            catalog, KERNEL, index_advisor=advisor
        )
        plan = band_plan()
        table = catalog.table("unit")
        assert not table.indexes
        for _ in range(3):
            self._run_band_query(executor, plan)
            changed = advisor.end_tick()
        assert changed, "third consecutive hot tick should create the index"
        assert advisor.created_count == 1
        created = list(table.indexes)
        assert len(created) == 1 and created[0].startswith(IndexAdvisor.AUTO_INDEX_PREFIX)
        assert isinstance(table.indexes[created[0]], GridIndex)
        # The new plan probes the advisor-created index.
        assert _probed_indexes(executor, plan) == created
        # Keep it hot: no eviction while the query runs.
        for _ in range(6):
            self._run_band_query(executor, plan)
            assert not advisor.end_tick()
        assert created[0] in table.indexes
        # Stop running the query: the index is evicted after evict_after idle ticks.
        changed = False
        for _ in range(7):
            changed = advisor.end_tick() or changed
        assert changed and advisor.evicted_count == 1
        assert not table.indexes

    def test_cell_size_follows_observed_probe_width(self):
        catalog = _make_catalog()
        advisor = IndexAdvisor(catalog, create_after=2, min_table_rows=10)
        executor = Executor(catalog, index_advisor=advisor, config=KERNEL)
        plan = band_plan()
        for _ in range(2):
            self._run_band_query(executor, plan)
            advisor.end_tick()
        (index,) = catalog.table("unit").indexes.values()
        # Ranges are 3/5/8, so probe widths (2r) average ~10-ish.
        assert 5.0 <= index.cell_size <= 20.0

    def _advisor_grid(self, catalog, width_sum: float, width_count: int) -> GridIndex:
        advisor = IndexAdvisor(catalog, create_after=2, min_table_rows=10)
        hook = advisor.make_hook("unit", ("u.x", "u.y"))
        for _ in range(2):
            hook(10, width_sum, width_count)
            advisor.end_tick()
        (index,) = catalog.table("unit").indexes.values()
        return index

    def test_grid_cell_size_is_the_observed_width(self):
        assert self._advisor_grid(_make_catalog(), 80.0, 10).cell_size == 8.0

    def test_grid_cell_size_without_observation_spreads_rows_over_the_span(self):
        catalog = _make_catalog()
        rows = list(catalog.table("unit").rows())
        spans = [max(r[c] for r in rows) - min(r[c] for r in rows) for c in ("x", "y")]
        index = self._advisor_grid(catalog, 0.0, 0)
        assert index.cell_size == pytest.approx(min(spans) / len(rows) ** 0.5)

    def test_grid_cell_size_default_without_rows_or_span(self):
        table = Table("unit", _unit_schema())
        assert grid_cell_size(table, ("x", "y"), None) == 16.0
        table.insert({"id": 1, "x": 5.0, "y": 5.0})
        assert grid_cell_size(table, ("x", "y"), None) == 16.0  # one row
        table.insert({"id": 2, "x": 5.0, "y": None})
        assert grid_cell_size(table, ("x", "y"), None) == 16.0  # no numeric span
        assert grid_cell_size(table, ("x", "y"), 0.0) == 16.0  # no observed width
        table.insert({"id": 3, "x": 9.0, "y": None})
        assert grid_cell_size(table, ("x", "y"), None) == pytest.approx(4.0 / 3**0.5)

    def test_rts_served_world_grid_cell_size(self):
        """An ``rts_served``-shaped world (500 units, ranges 6 / 8 / 10 in
        equal shares, 183 × 183) sizes its auto grid at the mean probe
        width, 2 × the mean range: 15.992."""
        world = build_rts_world(0, world_size=183.0, config=KERNEL)
        rng = random.Random(3)
        world.spawn_many(
            "Unit",
            [
                {"x": rng.uniform(0, 183.0), "y": rng.uniform(0, 183.0), "range": (6, 8, 10)[k % 3]}
                for k in range(500)
            ],
        )
        world.run(world.index_advisor.create_after + 1)
        index = world.catalog.table("Unit").indexes[IndexAdvisor.AUTO_INDEX_PREFIX + "x_y"]
        assert index.cell_size == pytest.approx(15.992)

    def test_small_tables_are_not_indexed(self):
        catalog = _make_catalog(n=32)
        advisor = IndexAdvisor(catalog, create_after=2, min_table_rows=128)
        executor = Executor(catalog, index_advisor=advisor, config=KERNEL)
        plan = band_plan()
        for _ in range(5):
            self._run_band_query(executor, plan)
            advisor.end_tick()
        assert not catalog.table("unit").indexes

    def test_hot_shape_naming_a_missing_column_creates_no_index(self):
        catalog = _make_catalog()
        advisor = IndexAdvisor(catalog, create_after=2, min_table_rows=10)
        hook = advisor.make_hook("unit", ("u.x", "u.altitude"))
        for _ in range(4):
            hook(10, 40.0, 10)
            assert not advisor.end_tick()
        assert advisor.created_count == 0 and not catalog.table("unit").indexes

    def test_rts_world_advisor_indexes_hot_band_join(self):
        world = build_rts_world(
            150,
            with_physics=False,
            scripts=["count_neighbours"],
            config=KERNEL,
        )
        assert world.index_advisor is not None
        world.run(world.index_advisor.create_after + 1)
        unit_indexes = world.catalog.table("Unit").indexes
        assert any(
            name.startswith(IndexAdvisor.AUTO_INDEX_PREFIX) for name in unit_indexes
        ), unit_indexes
        # Ticks keep working (and replan onto the index) after creation.
        world.run(2)


class TestDeltaJoinIndexProbe:
    def _band_catalog(self, n=400, seed=4):
        catalog = _make_catalog(n=n, seed=seed)
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        return catalog

    def test_delta_refresh_probes_index_and_matches_full_paths(self):
        catalog = self._band_catalog()
        table = catalog.table("unit")
        plan = band_plan()
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        view = inc.incremental_view(plan)
        probes = [
            op.band_probe
            for op in view.root.walk()
            if isinstance(op, DeltaJoinOp) and op.band_probe is not None
        ]
        assert probes, "band join should carry a BandIndexProbe"
        ref = Executor(catalog, ROW)
        rng = random.Random(21)
        for tick in range(5):
            assert _normalized(inc.execute(plan).rows) == _normalized(
                ref.execute(plan).rows
            ), f"tick {tick}"
            for rowid in rng.sample(list(table.row_ids()), 6):
                table.update(rowid, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})
        assert view.delta_refreshes >= 4
        assert sum(p.index_probes for p in probes) > 0

    def test_advisor_created_index_is_picked_up_without_reregistration(self):
        catalog = _make_catalog()
        table = catalog.table("unit")
        plan = band_plan()
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        view = inc.incremental_view(plan)
        probes = [
            op.band_probe
            for op in view.root.walk()
            if isinstance(op, DeltaJoinOp) and op.band_probe is not None
        ]
        rng = random.Random(22)

        def churn():
            for rowid in rng.sample(list(table.row_ids()), 6):
                table.update(rowid, {"x": rng.uniform(0, 100), "y": rng.uniform(0, 100)})

        inc.execute(plan)
        churn()
        inc.execute(plan)
        assert sum(p.index_probes for p in probes) == 0  # no index yet: hash fallback
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        churn()
        ref = Executor(catalog, ROW)
        assert _normalized(inc.execute(plan).rows) == _normalized(ref.execute(plan).rows)
        assert sum(p.index_probes for p in probes) > 0  # re-resolved lazily


class TestRangeProbeDegenerateWidths:
    """Regression: 32+ zero-width probes drove the sampled cell size to the
    1e-9 clamp, and a single later wide probe then iterated ~width/1e-9
    cells (a >60s hang).  Zero widths are now excluded from the sample and
    per-probe cell iteration is bounded by the occupied cells."""

    def _schemas(self):
        left = Schema([Column("lo", DataType.NUMBER), Column("hi", DataType.NUMBER)])
        right = Schema([Column("x", DataType.NUMBER)])
        out = Schema(list(left) + list(right))
        return left, right, out

    def test_zero_width_sample_plus_wide_probe_completes_fast(self):
        left_schema, right_schema, out_schema = self._schemas()
        left_rows = [{"lo": float(i % 7), "hi": float(i % 7)} for i in range(40)]
        left_rows.append({"lo": -25_000.0, "hi": 25_000.0})
        right_rows = [{"x": float(i)} for i in range(100)]
        op = RangeProbeJoinOp(
            ValuesOp(left_schema, left_rows),
            ValuesOp(right_schema, right_rows),
            [("x", col("lo"), col("hi"))],
            out_schema,
        )
        start = time.perf_counter()
        rows = op.rows()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"degenerate probe widths took {elapsed:.1f}s"
        # Correctness: each zero-width probe matches its exact x; the wide
        # probe matches all 100 rows.
        expected = sum(1 for r in left_rows[:40] if r["lo"] <= 99) + 100
        assert len(rows) == expected

    def test_all_zero_width_probes_still_match_exact_points(self):
        left_schema, right_schema, out_schema = self._schemas()
        left_rows = [{"lo": float(i), "hi": float(i)} for i in range(50)]
        right_rows = [{"x": float(i)} for i in range(50)]
        op = RangeProbeJoinOp(
            ValuesOp(left_schema, left_rows),
            ValuesOp(right_schema, right_rows),
            [("x", col("lo"), col("hi"))],
            out_schema,
        )
        assert len(op.rows()) == 50
