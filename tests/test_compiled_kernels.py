"""Plan-to-kernel compilation: equivalence, caching, and invalidation.

The compiler's contract (see :mod:`repro.engine.compile.kernels`) is that
a fused kernel produces *exactly* the rows, in exactly the order, of the
row operators it replaces — so every test here compares kernels against
row-path execution (``use_batch=False``) with plain ``==`` on the row
lists, never with sorted/normalized views.  Whole-world runs additionally
pin the stronger property the default preset relies on: kernel
compilation is a pure performance path and may not change any post-tick
state, any combined effect, or anything the WAL commits.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from test_equivalence_and_workloads import state_fingerprint
from test_index_join import index_probe_join
from test_replay_determinism import WORKLOADS as REPLAY_WORKLOADS
from test_replay_determinism import rts_churn, run_with_wal, traffic_churn

from repro.engine import Catalog, Column, DataType, EngineConfig, Schema
from repro.engine.algebra import Aggregate, AggregateSpec, Join, Project, Select, TableScan, Union
from repro.engine.executor import Executor, TickQuerySpec
from repro.engine.expressions import and_all, col, lit
from repro.engine.indexes import GridIndex, RangeTreeIndex, SortedIndex
from repro.engine.compile import KernelOp
from repro.engine.compile.exprgen import KernelDecline
from repro.engine.operators import (
    BatchBridgeOp,
    HashAggregateOp,
    HashJoinOp,
    IndexProbeJoinOp,
    RangeProbeJoinOp,
)
from repro.engine.optimizer import Planner
from repro.engine.optimizer.adaptive import AdaptiveQueryManager, IndexAdvisor
from repro.persistence.replay import replay_tables
from repro.workloads import build_rts_world, build_traffic_world

INTERP = EngineConfig(use_batch=False, use_incremental=False)
COMPILED = EngineConfig(use_incremental=False)


# ------------------------------------------------------------------------------------
# plan shapes over the shared unit catalog
# ------------------------------------------------------------------------------------


def filter_aggregate_plan() -> Aggregate:
    return Aggregate(
        Select(
            TableScan("unit"),
            col("x").gt(lit(40.0)).and_(col("health").gt(lit(10.0))),
        ),
        ["player"],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("total_hp", "sum", col("health")),
        ],
    )


def multi_fragment_aggregate_plan() -> Aggregate:
    """Aggregates over *different* arguments: exercises the state-slot
    fallback instead of the single-gather fast path."""
    return Aggregate(
        Select(TableScan("unit"), col("health").gt(lit(5.0))),
        ["player"],
        [
            AggregateSpec("hp", "sum", col("health")),
            AggregateSpec("west", "min", col("x")),
            AggregateSpec("north", "max", col("y")),
            AggregateSpec("mean_hp", "avg", col("health")),
        ],
    )


def project_plan() -> Project:
    return Project(
        Select(TableScan("unit", "u"), col("u.health").gt(lit(50.0))),
        {"id": col("u.id"), "scaled": col("u.x") * lit(2.0)},
    )


def equi_join_plan() -> Select:
    join = Join(
        TableScan("unit", alias="a"),
        TableScan("unit", alias="b"),
        col("a.player").eq(col("b.player")),
    )
    return Select(join, col("a.health").gt(col("b.health")))


def band_join_plan(inner_filter=None) -> Select:
    inner = TableScan("unit", alias="u")
    if inner_filter is not None:
        inner = Select(inner, inner_filter)
    join = Join(TableScan("unit", alias="self"), inner, None, how="cross")
    return Select(
        join,
        and_all(
            [
                col("u.x").ge(col("self.x") - col("self.range")),
                col("u.x").le(col("self.x") + col("self.range")),
                col("u.y").ge(col("self.y") - col("self.range")),
                col("u.y").le(col("self.y") + col("self.range")),
            ]
        ),
    )


ALL_PLANS = {
    "filter_aggregate": filter_aggregate_plan,
    "multi_fragment_aggregate": multi_fragment_aggregate_plan,
    "project": project_plan,
    "equi_join": equi_join_plan,
    "band_join": band_join_plan,
}


# ------------------------------------------------------------------------------------
# executor-level exact equivalence
# ------------------------------------------------------------------------------------


class TestExactEquivalence:
    @pytest.mark.parametrize("shape", sorted(ALL_PLANS))
    def test_rows_and_order_match_interpreted(self, unit_catalog, shape):
        plan = ALL_PLANS[shape]()
        interp = Executor(unit_catalog, INTERP)
        compiled = Executor(unit_catalog, COMPILED)
        expected = interp.execute(plan)
        got = compiled.execute(plan)
        assert got.rows == expected.rows  # identical rows, identical order
        report = compiled.kernel_report()
        assert report["compiled"] >= 1, f"{shape} was not compiled: {report}"
        assert report["declined"] == 0, report

    @pytest.mark.parametrize("shape", sorted(ALL_PLANS))
    def test_equivalence_survives_churn(self, unit_catalog, shape):
        plan = ALL_PLANS[shape]()
        interp = Executor(unit_catalog, INTERP)
        compiled = Executor(unit_catalog, COMPILED)
        table = unit_catalog.table("unit")
        rng = random.Random(9)
        for tick in range(6):
            rowids = list(table.row_ids())
            for rowid in rng.sample(rowids, 10):
                table.update(
                    rowid,
                    {"x": rng.uniform(0, 100), "health": rng.uniform(0, 100)},
                )
            if tick % 2 == 0:
                table.insert(
                    {
                        "id": 1000 + tick,
                        "player": tick % 4,
                        "x": rng.uniform(0, 100),
                        "y": rng.uniform(0, 100),
                        "health": rng.randint(1, 100),
                        "range": 10,
                    }
                )
                table.delete(rng.choice(rowids))
            assert compiled.execute(plan).rows == interp.execute(plan).rows, (
                f"{shape} diverged at tick {tick}"
            )


# ------------------------------------------------------------------------------------
# every join shape against the row operators
# ------------------------------------------------------------------------------------


def _pair_catalog(seed: int) -> Catalog:
    """Tables ``a`` and ``b`` with NULL keys and values; either may be empty."""
    rng = random.Random(seed)
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER),
            Column("k", DataType.NUMBER, nullable=True),
            Column("v", DataType.NUMBER, nullable=True),
        ]
    )
    for name in ("a", "b"):
        catalog.create_table(name, schema).insert_many(
            {
                "id": i,
                "k": None if rng.random() < 0.2 else rng.randint(0, 5),
                "v": None if rng.random() < 0.2 else rng.uniform(0, 10),
            }
            for i in range(rng.randint(0, 20))
        )
    return catalog


def _join_side(name: str, shape: str):
    alias = f"{name}x"
    scan = TableScan(name, alias=alias)
    if shape == "filtered":  # fused into the join kernel
        return Select(scan, col(f"{alias}.v").gt(lit(3.0)))
    if shape == "aggregate":  # a kernel of its own, the join kernel's input
        sums = Aggregate(scan, [f"{alias}.k"], [AggregateSpec("s", "sum", col(f"{alias}.v"))])
        key = col(f"{alias}.k")
        return Project(sums, {f"{alias}.id": key, f"{alias}.k": key, f"{alias}.v": col("s")})
    return scan


JOIN_CONDITIONS = {
    "equi": col("ax.k").eq(col("bx.k")),
    "equi+residual": col("ax.k").eq(col("bx.k")).and_(col("ax.v").lt(col("bx.v"))),
    "theta": col("ax.k").eq(col("bx.k")).or_(col("ax.v").gt(col("bx.v"))),
    "band": and_all(
        [col("bx.v").ge(col("ax.v") - lit(1.0)), col("bx.v").le(col("ax.v") + lit(1.0))]
    ),
    "none": None,
}


class TestEveryJoinShape:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        how=st.sampled_from(["inner", "left"]),
        condition=st.sampled_from(sorted(JOIN_CONDITIONS)),
        sides=st.tuples(*[st.sampled_from(["scan", "filtered", "aggregate"])] * 2),
        project=st.booleans(),
    )
    def test_one_kernel_matches_row_operators(self, seed, how, condition, sides, project):
        """Inner, left and cross joins — hash, band and nested-loop cores,
        NULL keys, empty sides, fused or kernel-input sides — compile to
        one kernel whose rows and order equal the row operators'."""
        catalog = _pair_catalog(seed)
        predicate = JOIN_CONDITIONS[condition]
        if predicate is None and how == "inner":
            how = "cross"
        plan = Join(_join_side("a", sides[0]), _join_side("b", sides[1]), predicate, how=how)
        if project:
            plan = Project(plan, {"x": col("ax.id"), "y": col("bx.v")})
        compiled = Executor(catalog, COMPILED)
        assert compiled.execute(plan).rows == Executor(catalog, INTERP).execute(plan).rows
        physical = compiled.prepare(plan).physical
        assert isinstance(physical, BatchBridgeOp) and isinstance(physical.batch_root, KernelOp)
        report = compiled.kernel_report()
        assert report["declined"] == 0 and report["errors"] == 0, report


# ------------------------------------------------------------------------------------
# plan shape and choice equivalence
# ------------------------------------------------------------------------------------


def _batch_ops(physical):
    """All batch operators reachable through the plan's bridge boundaries."""

    def walk_batch(op):
        yield op
        for child in op.children:
            yield from walk_batch(child)

    for op in physical.walk():
        if isinstance(op, BatchBridgeOp):
            yield from walk_batch(op.batch_root)


class TestPlanChoice:
    def test_band_join_lowers_to_kernel(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        physical = executor.prepare(band_join_plan(), cache=False).physical
        assert any(isinstance(op, KernelOp) for op in _batch_ops(physical))

    def test_standalone_planner_compiles_kernels(self, unit_catalog):
        """A Planner outside an Executor — built directly or by the
        adaptive manager's default factory — lowers to the same fused
        kernel the executor would."""
        plan = Aggregate(
            Join(
                TableScan("unit", alias="a"),
                TableScan("unit", alias="b"),
                col("a.player").eq(col("b.player")),
            ),
            ["a.player"],
            [AggregateSpec("n", "count")],
        )
        for physical in (
            Planner(unit_catalog, EngineConfig()).plan(plan).physical,
            AdaptiveQueryManager(unit_catalog, plan).compile_for_state("s").planned.physical,
        ):
            assert isinstance(physical, BatchBridgeOp)
            assert isinstance(physical.batch_root, KernelOp)
            assert physical.batch_root.program.fused_nodes == 2

    def test_declines_are_about_shape_or_expressions_never_indexes(self, unit_catalog):
        """No index makes a kernel decline: the reasons left are a join
        side or leaf with no batch operator, and an expression."""
        assert KernelDecline.REASONS == ("join-shape", "expression", "bare-leaf")
        unit_catalog.create_index("unit", "by_x", SortedIndex("x"))
        players = Project(TableScan("unit"), {"p": col("player")})
        executor = Executor(unit_catalog, COMPILED)
        executor.execute(Select(TableScan("unit"), col("x").lt(lit(50))))
        executor.execute(Select(Union(players, players), col("p").eq(lit(1))))
        report = executor.kernel_report()
        assert report["declined_by_reason"] == {"join-shape": 0, "expression": 0, "bare-leaf": 1}
        assert report["compiled"] >= 1 and report["errors"] == 0


#: Band-covering indexes the band kernel probes: full coverage by
#: each range-capable structure, and partial coverage (``x`` only).
BAND_INDEXES = {
    "grid_xy": lambda: GridIndex(["x", "y"], cell_size=5.0),
    "range_tree_xy": lambda: RangeTreeIndex(["x", "y"]),
    "sorted_x": lambda: SortedIndex("x"),
    "grid_x": lambda: GridIndex(["x"], cell_size=5.0),
}


def _index_kernels(executor, plan) -> list[KernelOp]:
    physical = executor.prepare(plan).physical
    return [
        op
        for op in _batch_ops(physical)
        if isinstance(op, KernelOp) and op.index_probe is not None
    ]


def _add_edge_rows(catalog) -> None:
    """NULL coordinates and ranges, zero-width and oversized probe boxes."""
    table = catalog.table("unit")
    rowids = list(table.row_ids())
    table.update(rowids[0], {"x": None})
    table.update(rowids[1], {"y": None})
    table.update(rowids[2], {"range": None})  # NULL bounds: the probe is skipped
    table.update(rowids[3], {"range": 0, "x": 50.0, "y": 50.0})  # zero-width box ...
    table.update(rowids[4], {"x": 50.0, "y": 50.0})  # ... with exactly one partner
    table.update(rowids[5], {"range": 1000})  # box larger than the populated area
    table.update(rowids[6], {"range": -1})  # inverted bounds: skipped


class TestIndexProbingBandKernel:
    """With a band-covering index the kernel keeps the join and probes the
    index, yielding ``IndexProbeJoinOp``'s rows in its order."""

    @pytest.mark.parametrize("kind", sorted(BAND_INDEXES))
    @pytest.mark.parametrize("inner_filter", [False, True], ids=["plain", "inner-select"])
    def test_kernel_probes_index_in_interpreted_order(self, unit_catalog, kind, inner_filter):
        _add_edge_rows(unit_catalog)
        unit_catalog.create_index("unit", "band", BAND_INDEXES[kind]())
        plan = band_join_plan(col("u.health").gt(lit(40)) if inner_filter else None)
        compiled = Executor(unit_catalog, COMPILED)
        kernels = _index_kernels(compiled, plan)
        assert [k.index_probe[1] for k in kernels] == ["band"]
        # Same rows in the same order as the row-order oracle of the core.
        expected = index_probe_join(unit_catalog, plan).rows()
        assert compiled.execute(plan).rows == expected
        assert len(expected) > 100, "scenario too sparse to exercise the probe loop"
        report = compiled.kernel_report()
        assert report["declined"] == 0 and report["errors"] == 0, report

    def test_widest_covering_index_wins_like_the_planner(self, unit_catalog):
        unit_catalog.create_index("unit", "by_x", SortedIndex("x"))
        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        kernels = _index_kernels(Executor(unit_catalog, COMPILED), band_join_plan())
        assert [k.index_probe[1] for k in kernels] == ["xy"]

    def test_degradation_ladder_between_prepare_and_execute(self, unit_catalog):
        """A cached plan outlives its index: named index → any covering
        index → every row id, in the same order as the row-order oracle."""
        _add_edge_rows(unit_catalog)
        unit_catalog.create_index("unit", "by_x", SortedIndex("x"))
        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        plan = band_join_plan()
        compiled = Executor(unit_catalog, COMPILED)
        probe = index_probe_join(unit_catalog, plan)
        oracle = Executor(unit_catalog, EngineConfig.reference())
        assert _index_kernels(compiled, plan)  # the kernel plan is now cached

        def normalized(rows):
            return sorted(sorted(row.items(), key=repr) for row in rows)

        for dropped in (None, "xy", "by_x"):
            if dropped is not None:
                unit_catalog.drop_index("unit", dropped)  # no invalidation
            got = compiled.execute(plan).rows
            assert got == probe.rows(), f"diverged after dropping {dropped}"
            assert normalized(got) == normalized(oracle.execute(plan, cache=False).rows)
        assert _index_kernels(compiled, plan), "the cached kernel plan was replaced"

    def test_advisor_sees_the_same_probe_statistics(self, unit_catalog):
        _add_edge_rows(unit_catalog)
        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        plans = [
            band_join_plan(),
            # An empty outer side still reports (zero probes).
            Select(
                band_join_plan().child,
                band_join_plan().predicate.and_(col("self.id").lt(lit(0))),
            ),
        ]
        observations = []
        for config in (COMPILED, INTERP):
            advisor = IndexAdvisor(unit_catalog, create_after=10**6)
            executor = Executor(unit_catalog, config, index_advisor=advisor)
            for plan in plans:
                executor.execute(plan)
            observations.append(advisor._observations)
        assert observations[0] == observations[1]
        (obs,) = observations[0].values()
        # 100 units minus the NULL x, NULL y, NULL range and inverted range rows.
        assert obs.probes_this_tick == 96


# ------------------------------------------------------------------------------------
# cache lifecycle: fingerprint hits and shape-change invalidation
# ------------------------------------------------------------------------------------


class TestKernelCache:
    def test_fingerprint_cache_hit_across_replans(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        plan = filter_aggregate_plan()
        executor.execute(plan)
        assert executor.kernel_report()["compiled"] == 1
        executor.prepare(filter_aggregate_plan(), cache=False)  # same fingerprint
        report = executor.kernel_report()
        assert report["compiled"] == 1
        assert report["hits"] >= 1

    def test_invalidate_plans_drops_kernels(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        plan = filter_aggregate_plan()
        executor.execute(plan)
        executor.invalidate_plans()
        assert executor.kernel_report()["cached"] == 0
        executor.execute(plan)
        assert executor.kernel_report()["compiled"] == 2  # recompiled, not served stale

    def test_full_invalidate_drops_kernels(self, unit_catalog):
        executor = Executor(unit_catalog, COMPILED)
        executor.execute(filter_aggregate_plan())
        executor.invalidate()
        assert executor.kernel_report()["cached"] == 0

    def test_catalog_shape_change_mid_run_stays_correct(self, unit_catalog):
        """After the catalog shape changes mid-run, ``invalidate_plans``
        must drop the compiled kernels along with the plans — a stale band
        kernel would keep grid-rebuilding (in grid order) instead of
        probing the new index in its order."""
        plan = band_join_plan()
        compiled = Executor(unit_catalog, COMPILED)
        interp = Executor(unit_catalog, INTERP)
        assert compiled.execute(plan).rows == interp.execute(plan).rows
        assert compiled.kernel_report()["compiled"] == 1

        unit_catalog.create_index("unit", "xy", GridIndex(["x", "y"], cell_size=5.0))
        compiled.invalidate_plans()
        assert compiled.kernel_report()["cached"] == 0
        assert compiled.execute(plan).rows == index_probe_join(unit_catalog, plan).rows()
        assert [k.index_probe[1] for k in _index_kernels(compiled, plan)] == ["xy"]
        assert compiled.kernel_report()["compiled"] == 2  # the index-probing variant

        unit_catalog.drop_index("unit", "xy")
        compiled.invalidate_plans()
        assert compiled.execute(plan).rows == interp.execute(plan).rows
        assert not _index_kernels(compiled, plan)
        assert compiled.kernel_report()["compiled"] == 3  # back on the transient grid


# ------------------------------------------------------------------------------------
# MQO interaction: shared subplans and alias-renamed subscribers
# ------------------------------------------------------------------------------------


class TestSharedPlans:
    def _subscriber(self, alias: str) -> Project:
        return Project(
            Select(TableScan("unit", alias), col(f"{alias}.x").gt(lit(40.0))),
            {"__target__": col(f"{alias}.id"), "__value__": col(f"{alias}.health")},
        )

    def test_alias_renamed_subscribers_match_interpreted(self, unit_catalog):
        plans = [self._subscriber("a"), self._subscriber("b")]
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        compiled = Executor(unit_catalog, COMPILED)
        plain = Executor(unit_catalog, INTERP)
        results = compiled.execute_tick(specs)
        assert compiled.last_tick_stats["shared_subplans"] == 1
        for plan, result in zip(plans, results):
            assert result.rows == plain.execute(plan).rows

    def test_shared_tick_results_stay_fresh_after_mutation(self, unit_catalog):
        plans = [self._subscriber("a"), self._subscriber("b")]
        specs = [TickQuerySpec(key=f"q{i}", plan=p) for i, p in enumerate(plans)]
        compiled = Executor(unit_catalog, COMPILED)
        plain = Executor(unit_catalog, INTERP)
        compiled.execute_tick(specs)
        table = unit_catalog.table("unit")
        table.update(next(iter(table.row_ids())), {"x": 99.0, "health": 1.0})
        results = compiled.execute_tick(specs)
        for plan, result in zip(plans, results):
            assert result.rows == plain.execute(plan).rows


# ------------------------------------------------------------------------------------
# whole-world equivalence and replay determinism under the fastest preset
# ------------------------------------------------------------------------------------


def _world_snapshot(world) -> dict:
    return {
        table.name: sorted(tuple(sorted(r.items())) for r in table.rows())
        for table in world.catalog.tables()
    }


class TestWholeWorld:
    @pytest.mark.parametrize("workload", sorted(REPLAY_WORKLOADS))
    def test_compiled_world_matches_default(self, workload):
        """Tick two copies of the same seeded world — the row target
        (``use_batch=False``: per-query row plans, no index) vs the
        ``fastest`` preset — with identical churn: every post-tick state of
        every table must match exactly."""
        build, churn = REPLAY_WORKLOADS[workload]
        w_default = build(config=EngineConfig(use_batch=False))
        w_compiled = build(config=EngineConfig.fastest())
        rng_a, rng_b = random.Random(31), random.Random(31)
        for tick in range(8):
            churn(w_default, rng_a)
            churn(w_compiled, rng_b)
            w_default.tick()
            w_compiled.tick()
            assert _world_snapshot(w_default) == _world_snapshot(w_compiled), (
                f"{workload} diverged at tick {tick}"
            )
        assert w_compiled.executor.kernel_report()["errors"] == 0

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_units=st.integers(min_value=130, max_value=170),
        pause_at=st.integers(min_value=3, max_value=6),
    )
    def test_fastest_matches_reference_across_index_lifecycle(self, seed, n_units, pause_at):
        """rts and traffic under ``fastest()`` vs the ``reference()`` oracle,
        tick for tick, while the advisor creates its grid index (the band
        kernels switch from the transient grid to probing it), evicts it
        while the scripts are paused, and creates it again."""
        pause = range(pause_at, pause_at + 5)
        cases = [
            (build_rts_world, rts_churn, "Unit", ["health", "x", "y"]),
            (build_traffic_world, traffic_churn, "Vehicle", ["position", "velocity"]),
        ]
        for build, churn, class_name, attributes in cases:
            worlds = [
                build(n_units, seed=seed, config=c)
                for c in (EngineConfig.fastest(), EngineConfig.reference())
            ]
            worlds[0].index_advisor.create_after = 2
            worlds[0].index_advisor.evict_after = 3
            rngs = [random.Random(seed), random.Random(seed)]
            scripts = worlds[0].enabled_scripts()
            for tick in range(pause_at + 9):
                for world, rng in zip(worlds, rngs):
                    churn(world, rng)  # spawns/destroys: row ids stop being positions
                    for script in scripts:
                        (world.disable_script if tick in pause else world.enable_script)(script)
                    world.tick()
                states = [state_fingerprint(w, class_name, attributes) for w in worlds]
                assert states[0] == states[1], f"{class_name} diverged at tick {tick}"
            report = worlds[0].executor.kernel_report()
            assert report["errors"] == 0, report
            assert report["declined"] == sum(report["declined_by_reason"].values())
            if class_name == "Unit":
                advisor = worlds[0].index_advisor
                assert advisor.created_count == 2 and advisor.evicted_count == 1

    def test_fastest_rts_pipeline_is_fully_columnar(self):
        """Plan-shape guard (no timing): once the advisor's index exists the
        tick pipeline holds no row-path join or aggregate — the band joins
        are index-probing kernels nested in batch trees."""
        world = build_rts_world(150, config=EngineConfig.fastest())
        world.run(8)
        assert world.index_advisor.created_indexes() == {"Unit": ["auto_band_x_y"]}
        pipeline = world.executor._tick_pipeline
        roots = [e.physical for e in pipeline.entries] + [s.physical for s in pipeline.shared]
        row_ops = (IndexProbeJoinOp, RangeProbeJoinOp, HashJoinOp, HashAggregateOp)
        assert not [op.label() for root in roots for op in root.walk() if isinstance(op, row_ops)]
        probing = [
            op
            for root in roots
            for op in _batch_ops(root)
            if isinstance(op, KernelOp) and op.index_probe is not None
        ]
        assert {op.index_probe[1] for op in probing} == {"auto_band_x_y"}
        assert world.executor.kernel_report()["errors"] == 0

    @pytest.mark.parametrize("workload", sorted(REPLAY_WORKLOADS))
    def test_replay_determinism_holds_compiled(self, workload):
        """The replay guarantee re-run under kernel compilation: the
        compiled run's WAL produces the same commits as the row path's,
        and replay reconstructs every boundary exactly."""
        path, states, records = run_with_wal(
            workload, churn_seed=42, config=EngineConfig.fastest()
        )
        _, interp_states, interp_records = run_with_wal(
            workload, churn_seed=42, config=EngineConfig(use_batch=False)
        )
        assert states == interp_states
        assert records == interp_records
        for tick in sorted(states):
            replayed = replay_tables(path, tick=tick)
            assert replayed.tables == states[tick], f"divergence at tick {tick}"
