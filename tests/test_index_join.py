"""Persistent index-backed spatial joins: planner, operators, advisor, deltas.

Covers the index-probing band join (`IndexProbeJoinOp`), its plan-time
selection against registered `GridIndex` / `RangeTreeIndex` / `SortedIndex`
structures, the index advisor's create/evict policy, the incremental
delta-join's index probing for the unchanged side, and the regression for
`RangeProbeJoinOp`'s degenerate cell-size estimate.
"""

from __future__ import annotations

import random
import time

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
    TableScan,
    and_all,
    col,
    lit,
)
from repro.engine.indexes import GridIndex, HashIndex, RangeTreeIndex, SortedIndex
from repro.engine.operators import (
    DeltaJoinOp,
    IndexProbeJoinOp,
    RangeProbeJoinOp,
    ValuesOp,
)
from repro.workloads import build_rts_world


def _config(**flags) -> EngineConfig:
    """The ``REPRO_ENGINE_PRESET`` config with *flags* changed, so the
    fastest CI leg keeps compiled kernels under every override."""
    return EngineConfig.from_env().replace(**flags)


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


def _join_ops(executor: Executor, plan) -> list:
    return [op for op in executor.prepare(plan, cache=False).physical.walk()]


class TestIndexProbePlanning:
    # These pin EngineConfig() instead of inheriting REPRO_ENGINE_PRESET:
    # they assert interpreted operator classes, and under use_compiled the
    # band join is a kernel (tests/test_compiled_kernels.py covers that).

    def test_grid_index_is_probed(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        probes = [op for op in ops if isinstance(op, IndexProbeJoinOp)]
        assert len(probes) == 1
        assert probes[0].index_name == "xy"

    def test_range_tree_index_is_probed(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "tree", RangeTreeIndex(["x", "y"]))
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        assert any(isinstance(op, IndexProbeJoinOp) for op in ops)

    def test_sorted_index_covers_one_dimension(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "by_x", SortedIndex("x"))
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        probes = [op for op in ops if isinstance(op, IndexProbeJoinOp)]
        assert len(probes) == 1
        assert probes[0].index_name == "by_x"

    def test_widest_coverage_wins(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "by_x", SortedIndex("x"))
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        probes = [op for op in ops if isinstance(op, IndexProbeJoinOp)]
        assert probes and probes[0].index_name == "xy"

    def test_hash_index_is_not_probed(self):
        # Pin the interpreted plan shape: under use_compiled the grid
        # rebuild is exactly the core the kernel compiler fuses away.
        catalog = _make_catalog()
        catalog.create_index("unit", "h", HashIndex(["x", "y"]))
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        assert not any(isinstance(op, IndexProbeJoinOp) for op in ops)
        assert any(isinstance(op, RangeProbeJoinOp) for op in ops)

    def test_no_index_falls_back_to_grid_rebuild(self):
        catalog = _make_catalog()
        ops = _join_ops(Executor(catalog, EngineConfig()), band_plan())
        assert any(isinstance(op, RangeProbeJoinOp) for op in ops)

    def test_use_indexes_false_forces_rebuild_path(self):
        catalog = _make_catalog()
        catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        ops = _join_ops(Executor(catalog, EngineConfig(use_indexes=False)), band_plan())
        assert not any(isinstance(op, IndexProbeJoinOp) for op in ops)
        assert any(isinstance(op, RangeProbeJoinOp) for op in ops)


class TestIndexProbeEquivalence:
    def _assert_equivalent(self, catalog, plan):
        indexed = Executor(catalog, EngineConfig(use_incremental=False))
        batch = Executor(catalog, _config(use_indexes=False, use_incremental=False))
        row = Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
        assert any(isinstance(op, IndexProbeJoinOp) for op in _join_ops(indexed, plan))
        rows_indexed = indexed.execute(plan, cache=False).rows
        rows_batch = batch.execute(plan, cache=False).rows
        rows_row = row.execute(plan, cache=False).rows
        assert _normalized(rows_indexed) == _normalized(rows_batch) == _normalized(rows_row)
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
        indexed = Executor(catalog, _config(use_incremental=False))
        row = Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
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
        executor = Executor(catalog, _config(use_incremental=False))
        expected = _normalized(
            Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
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
        ref = Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
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
        indexed = Executor(catalog, EngineConfig(use_incremental=False))
        assert any(isinstance(op, IndexProbeJoinOp) for op in _join_ops(indexed, plan))
        for executor in (
            indexed,
            Executor(catalog, _config(use_indexes=False, use_incremental=False)),
            Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False)),
        ):
            assert {r["x"] for r in executor.execute(plan, cache=False).rows} == expected
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        assert {r["x"] for r in inc.execute(plan).rows} == expected
        # Maintain through a delta that crosses the strict boundary.
        probers = catalog.table("prober")
        probers.update(next(probers.row_ids()), {"px": 6.0})
        assert {r["x"] for r in inc.execute(plan).rows} == {5.0, 6.0, 7.0}

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
        for executor in (
            Executor(catalog, _config(use_incremental=False)),
            Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False)),
        ):
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
            catalog, EngineConfig(use_incremental=False), index_advisor=advisor
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
        assert any(isinstance(op, IndexProbeJoinOp) for op in _join_ops(executor, plan))
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
        executor = Executor(catalog, index_advisor=advisor, config=_config(use_incremental=False))
        plan = band_plan()
        for _ in range(2):
            self._run_band_query(executor, plan)
            advisor.end_tick()
        (index,) = catalog.table("unit").indexes.values()
        # Ranges are 3/5/8, so probe widths (2r) average ~10-ish.
        assert 5.0 <= index.cell_size <= 20.0

    def test_small_tables_are_not_indexed(self):
        catalog = _make_catalog(n=32)
        advisor = IndexAdvisor(catalog, create_after=2, min_table_rows=128)
        executor = Executor(catalog, index_advisor=advisor, config=_config(use_incremental=False))
        plan = band_plan()
        for _ in range(5):
            self._run_band_query(executor, plan)
            advisor.end_tick()
        assert not catalog.table("unit").indexes

    def test_rts_world_auto_indexes_hot_band_join(self):
        world = build_rts_world(
            150,
            with_physics=False,
            scripts=["count_neighbours"],
            config=_config(use_incremental=False),
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
        ref = Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
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
        ref = Executor(catalog, _config(use_indexes=False, use_batch=False, use_incremental=False))
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
