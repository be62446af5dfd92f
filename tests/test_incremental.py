"""Tests for the delta-driven incremental execution subsystem.

Covers the delta algebra (:mod:`repro.engine.operators.incremental`), the
plan-time fallback rules (:mod:`repro.engine.optimizer.incremental`), the
executor/world wiring, and — most importantly — equivalence: under
randomized multi-tick churn, a registered incremental view must produce the
same result multiset as full re-execution on the row and batch paths, and a
world ticked with ``use_incremental=True`` must end in the same state as one
ticked without it.

Floats are compared with ``math.isclose``: incremental sums are maintained
by running addition/subtraction, which is exact for ints but can differ
from a fresh fold by rounding error.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionMode
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    Project,
    Select,
    TableScan,
)
from repro.engine.batch import DeltaBatch
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import and_all, col, lit
from repro.engine.indexes import GridIndex, SortedIndex
from repro.engine.operators import DeltaJoinOp
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.workloads import build_rts_world
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.traffic import build_traffic_world



# -- helpers ---------------------------------------------------------------------------


def _units_catalog(n_rows: int = 400, seed: int = 5) -> tuple[Catalog, object]:
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "units",
        Schema(
            [
                Column("id", DataType.NUMBER),
                Column("zone", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("health", DataType.NUMBER),
            ]
        ),
    )
    for i in range(n_rows):
        units.insert(
            {
                "id": i,
                "zone": i % 10,
                "x": rng.uniform(0, 100),
                "health": rng.uniform(0, 100),
            }
        )
    return catalog, units


def _normalize(rows):
    # repr-keyed sort tolerates None and mixed types in result columns.
    return sorted((tuple(sorted(r.items())) for r in rows), key=repr)


def assert_same_rows(a, b, context=""):
    na, nb = _normalize(a), _normalize(b)
    assert len(na) == len(nb), f"{context}: {len(na)} vs {len(nb)} rows"
    for row_a, row_b in zip(na, nb):
        for (key_a, val_a), (key_b, val_b) in zip(row_a, row_b):
            assert key_a == key_b, f"{context}: {key_a} vs {key_b}"
            if isinstance(val_a, float) or isinstance(val_b, float):
                assert math.isclose(val_a, val_b, rel_tol=1e-9, abs_tol=1e-9), (
                    f"{context}: {key_a}: {val_a} vs {val_b}"
                )
            else:
                assert val_a == val_b, f"{context}: {key_a}: {val_a} vs {val_b}"


def _random_churn(units, rng, allow_structural=True):
    rowids = list(units.row_ids())
    for _ in range(rng.randrange(1, 12)):
        op = rng.random()
        if op < 0.6 or not allow_structural:
            units.update(
                rng.choice(rowids),
                {"x": rng.uniform(0, 100), "health": rng.uniform(0, 100)},
            )
        elif op < 0.8:
            units.insert(
                {
                    "id": rng.randrange(10**6, 10**7),
                    "zone": rng.randrange(10),
                    "x": rng.uniform(0, 100),
                    "health": rng.uniform(0, 100),
                }
            )
        elif len(rowids) > 10:
            doomed = rng.choice(rowids)
            rowids.remove(doomed)
            units.delete(doomed)


# -- DeltaBatch ------------------------------------------------------------------------


class TestDeltaBatch:
    def test_net_cancels_matching_rows(self):
        delta = DeltaBatch(("a",), [(1,), (2,), (2,)], [(2,), (3,)])
        netted = delta.net()
        assert sorted(netted.added) == [(1,), (2,)]
        assert netted.removed == [(3,)]
        assert netted.netted

    def test_net_is_idempotent_and_cheap_when_flagged(self):
        delta = DeltaBatch(("a",), [(1,)], [(2,)]).net()
        assert delta.net() is delta

    def test_from_rows_and_row_dicts(self):
        delta = DeltaBatch.from_rows(("a", "b"), [{"a": 1, "b": 2}], [])
        assert delta.added == [(1, 2)]
        assert delta.row_dicts(delta.added) == [{"a": 1, "b": 2}]


# -- equivalence under churn -----------------------------------------------------------


class TestIncrementalEquivalence:
    def _check_plan(self, plan, ticks=25, seed=11, allow_structural=True):
        catalog, units = _units_catalog(seed=seed)
        inc = Executor(catalog)
        batch = Executor(catalog, EngineConfig(use_incremental=False))
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        rng = random.Random(seed)
        for tick in range(ticks):
            assert_same_rows(
                inc.execute(plan).rows,
                batch.execute(plan).rows,
                f"tick {tick} inc-vs-batch",
            )
            assert_same_rows(
                batch.execute(plan).rows,
                row.execute(plan).rows,
                f"tick {tick} batch-vs-row",
            )
            _random_churn(units, rng, allow_structural)
        view = inc.incremental_view(plan)
        # Every churned tick after the first was served by a delta refresh.
        assert view is not None and view.delta_refreshes == ticks - 1, view.stats()

    def test_filter_project(self):
        self._check_plan(
            Project(
                Select(TableScan("units"), col("x").gt(lit(30.0))),
                {"id": col("id"), "score": col("health") * lit(2)},
            )
        )

    def test_grouped_aggregate(self):
        self._check_plan(
            Aggregate(
                Select(TableScan("units"), col("health").gt(lit(20.0))),
                ["zone"],
                [
                    AggregateSpec("n", "count"),
                    AggregateSpec("hp", "sum", col("health")),
                    AggregateSpec("worst", "min", col("health")),
                    AggregateSpec("best", "max", col("health")),
                ],
            )
        )

    def test_global_aggregate_identity_row(self):
        plan = Aggregate(
            Select(TableScan("units"), col("x").gt(lit(1e9))),  # matches nothing
            [],
            [AggregateSpec("n", "count"), AggregateSpec("hp", "sum", col("health"))],
        )
        catalog, units = _units_catalog()
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "empty-global")
        units.update(next(units.row_ids()), {"x": 5.0})
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "still-empty")

    def test_equi_join(self):
        catalog, units = _units_catalog()
        zones = catalog.create_table(
            "zones",
            Schema([Column("zid", DataType.NUMBER), Column("bonus", DataType.NUMBER)]),
        )
        for z in range(10):
            zones.insert({"zid": z, "bonus": z * 1.5})
        plan = Project(
            Join(
                TableScan("units", alias="u"),
                TableScan("zones", alias="z"),
                col("u.zone").eq(col("z.zid")),
            ),
            {"id": col("u.id"), "boost": col("u.health") + col("z.bonus")},
        )
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        rng = random.Random(3)
        for tick in range(20):
            assert_same_rows(
                inc.execute(plan).rows, row.execute(plan).rows, f"tick {tick}"
            )
            _random_churn(units, rng)
            if tick % 4 == 0:
                zones.update(
                    rng.choice(list(zones.row_ids())), {"bonus": rng.uniform(0, 10)}
                )

    def test_left_join_padding(self):
        catalog, units = _units_catalog(n_rows=60)
        buffs = catalog.create_table(
            "buffs",
            Schema([Column("unit_id", DataType.NUMBER), Column("amount", DataType.NUMBER)]),
        )
        plan = Project(
            Join(
                TableScan("units", alias="u"),
                TableScan("buffs", alias="b"),
                col("u.id").eq(col("b.unit_id")),
                how="left",
            ),
            {"id": col("u.id"), "amount": col("b.amount")},
        )
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        rng = random.Random(7)
        buff_rowids = []
        for tick in range(20):
            assert_same_rows(
                inc.execute(plan).rows, row.execute(plan).rows, f"tick {tick}"
            )
            # Drive match counts across zero in both directions.
            if tick % 3 == 0:
                buff_rowids.append(
                    buffs.insert({"unit_id": rng.randrange(60), "amount": tick})
                )
            elif buff_rowids and tick % 3 == 1:
                buffs.delete(buff_rowids.pop(rng.randrange(len(buff_rowids))))
            _random_churn(units, rng, allow_structural=False)

    def test_band_join_keyless(self):
        plan = Project(
            Select(
                Join(
                    TableScan("units", alias="a"),
                    TableScan("units", alias="b"),
                    col("b.x").ge(col("a.x") - lit(5.0)).and_(
                        col("b.x").le(col("a.x") + lit(5.0))
                    ),
                ),
                col("a.health").gt(lit(50.0)),
            ),
            {"id": col("a.id"), "other": col("b.id")},
        )
        catalog, units = _units_catalog(n_rows=80)
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        rng = random.Random(13)
        for tick in range(10):
            assert_same_rows(
                inc.execute(plan).rows, row.execute(plan).rows, f"tick {tick}"
            )
            _random_churn(units, rng)


# -- fallback rules --------------------------------------------------------------------


class TestFallbackRules:
    def _register(self, plan, **catalog_kwargs):
        catalog, _ = _units_catalog()
        return Executor(catalog).register_incremental(plan)

    def test_sort_limit_fall_back(self):
        """A keyless left join falls back: its padding terms would re-probe
        every left row."""
        a, b = TableScan("units", alias="a"), TableScan("units", alias="b")
        assert not self._register(Join(a, b, None, how="left"))
        band = col("b.x").ge(col("a.x") - lit(5.0)).and_(col("b.x").le(col("a.x") + lit(5.0)))
        assert not self._register(Join(a, b, band, how="left"))

    def test_order_dependent_aggregates_fall_back(self):
        for func in ("first", "last", "collect"):
            plan = Aggregate(
                TableScan("units"), ["zone"], [AggregateSpec("v", func, col("x"))]
            )
            assert not self._register(plan)

    def test_disabled_executor_declines(self):
        catalog, _ = _units_catalog()
        executor = Executor(catalog, EngineConfig(use_incremental=False))
        assert not executor.register_incremental(TableScan("units"))

    def test_log_truncation_triggers_full_refresh_not_failure(self):
        catalog, units = _units_catalog(n_rows=50)
        plan = Project(TableScan("units"), {"id": col("id")})
        inc = Executor(catalog)
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        inc.execute(plan)
        view = inc.incremental_view(plan)
        # A restore resets the change log: the next refresh must rebuild.
        snapshot = units.snapshot()
        units.restore(snapshot)
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "post-restore")
        assert view.full_refreshes >= 2

    def test_high_churn_suspends_view(self):
        catalog, units = _units_catalog(n_rows=200)
        plan = Project(TableScan("units"), {"id": col("id"), "x": col("x")})
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        inc.execute(plan)
        rng = random.Random(1)
        for _ in range(6):  # rewrite every row between refreshes
            for rowid in list(units.row_ids()):
                units.update(rowid, {"x": rng.uniform(0, 100)})
            inc.execute(plan)
        view = inc.incremental_view(plan)
        assert view.state == "suspended"  # after three guard trips in a row
        (entry,) = inc.incremental_report()
        assert entry["state"] == "suspended" and entry["suspensions"] == 1
        assert entry["guard_trips"] == 3 and entry["full_refreshes"] == 3
        assert entry["resumes"] == 0 and "reason" not in entry
        # The query still executes correctly on the physical path.
        row = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "suspended")

    def test_noop_hits_on_unchanged_tables(self):
        catalog, units = _units_catalog()
        plan = Project(TableScan("units"), {"id": col("id")})
        inc = Executor(catalog)
        assert inc.register_incremental(plan)
        first = inc.execute(plan).rows
        second = inc.execute(plan).rows
        assert first == second
        # An update that writes the same values bumps the version but nets
        # to an empty delta: still a no-op hit, not a refresh.
        rowid = next(units.row_ids())
        units.update(rowid, dict(units.get(rowid)))
        # Served rows are fresh dicts: mutating them must not corrupt the view.
        second[0]["id"] = -999
        assert inc.execute(plan).rows[0]["id"] != -999
        view = inc.incremental_view(plan)
        assert view.noop_hits == 2
        assert view.full_refreshes == 1


# -- world-level equivalence (rts / traffic / marketplace) ------------------------------


def _world_states(world):
    return {
        cls: _normalize(world.objects(cls)) for cls in world.class_names()
    }


def _assert_worlds_match(w1, w2, context):
    s1, s2 = _world_states(w1), _world_states(w2)
    assert s1.keys() == s2.keys()
    for cls in s1:
        assert len(s1[cls]) == len(s2[cls]), f"{context}/{cls}"
        for row_a, row_b in zip(s1[cls], s2[cls]):
            for (key_a, val_a), (key_b, val_b) in zip(row_a, row_b):
                assert key_a == key_b
                if isinstance(val_a, float) or isinstance(val_b, float):
                    assert math.isclose(val_a, val_b, rel_tol=1e-9, abs_tol=1e-9), (
                        f"{context}/{cls}: {key_a}: {val_a} vs {val_b}"
                    )
                else:
                    assert val_a == val_b, f"{context}/{cls}: {key_a}: {val_a} vs {val_b}"


class TestWorldEquivalence:
    """Incremental on vs. off must not change any workload's evolution."""

    def test_rts_world(self):
        w1 = build_rts_world(60, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=True))
        w2 = build_rts_world(60, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=False))
        for _ in range(8):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "rts")

    def test_high_churn_rts_views_are_reported_as_suspended(self):
        """Every unit moves every tick: all four script views trip the churn
        guard and are suspended, and stay so while the churn lasts."""
        world = build_rts_world(100, config=EngineConfig(use_incremental=True))
        world.run(8)
        report = world.executor.incremental_report()
        assert [entry["state"] for entry in report] == ["suspended"] * 4, report
        assert all(entry["guard_trips"] == 3 for entry in report), report
        assert all(
            (entry["suspensions"], entry["resumes"]) == (1, 0) for entry in report
        ), report

    def test_rts_idle_world_uses_delta_path(self):
        world = build_rts_world(
            120,
            mode=ExecutionMode.COMPILED,
            with_physics=False,
            scripts=["count_neighbours"],
            config=EngineConfig(use_incremental=True),
        )
        reference = build_rts_world(
            120,
            mode=ExecutionMode.COMPILED,
            with_physics=False,
            scripts=["count_neighbours"],
            config=EngineConfig(use_incremental=False),
        )
        for _ in range(6):
            world.tick()
            reference.tick()
        _assert_worlds_match(world, reference, "rts-idle")
        report = world.executor.incremental_report()
        assert report, "expected the count_neighbours query to register a view"
        assert any(
            entry["noop_hits"] + entry["delta_refreshes"] > 0 for entry in report
        ), report

    def test_traffic_world(self):
        w1 = build_traffic_world(
            50, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=True)
        )
        w2 = build_traffic_world(
            50, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=False)
        )
        for _ in range(8):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "traffic")

    def test_marketplace_world(self):
        w1 = build_marketplace_world(
            24, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=True)
        )
        w2 = build_marketplace_world(
            24, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=False)
        )
        for _ in range(6):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "marketplace")

    def test_randomized_spawn_destroy_churn(self):
        """Structural churn (spawn/destroy between ticks) across both modes."""
        rng1, rng2 = random.Random(99), random.Random(99)
        w1 = build_rts_world(40, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=True))
        w2 = build_rts_world(40, mode=ExecutionMode.COMPILED, config=EngineConfig(use_incremental=False))
        for tick in range(6):
            for world, rng in ((w1, rng1), (w2, rng2)):
                if tick % 2 == 0:
                    world.spawn(
                        "Unit",
                        player=rng.randrange(2),
                        x=rng.uniform(0, 100),
                        y=rng.uniform(0, 100),
                    )
                else:
                    world.destroy("Unit", rng.randrange(world.count("Unit")))
                world.tick()
        _assert_worlds_match(w1, w2, "rts-structural")


# -- delta-join work: every term probes an index or fetches by key --------------------


_BAND_SCHEMA = Schema(
    [
        Column("id", DataType.NUMBER, nullable=False),
        Column("x", DataType.NUMBER),
        Column("y", DataType.NUMBER),
        Column("r", DataType.NUMBER),
        Column("h", DataType.NUMBER),
    ]
)


def _band_row(rng, object_id):
    return {
        "id": object_id,
        "x": rng.uniform(0, 40),
        "y": rng.uniform(0, 40),
        "r": rng.choice([1, 2.5, 4.0, 6]),
        "h": rng.randrange(100),
    }


#: Band bound shapes over a left column ``A``: ``A − column``, ``A ± constant``
#: in both spellings, and bare ``A``.
_LOW_BOUNDS = {
    "column": lambda a, w: a - w,
    "constant": lambda a, w: a - lit(3.0),
    "plus-negative": lambda a, w: a + lit(-2.0),
    "bare": lambda a, w: a,
}
_HIGH_BOUNDS = {
    "column": lambda a, w: a + w,
    "constant": lambda a, w: a + lit(3.0),
    "minus-negative": lambda a, w: a - lit(-2.0),
    "bare": lambda a, w: a,
}


def _band_plan(left_table, right_table, dims, low, high, strict_low, strict_high, filtered):
    conjuncts = []
    for dim in dims:
        a, b, w = col(f"a.{dim}"), col(f"b.{dim}"), col("a.r")
        lower, upper = _LOW_BOUNDS[low](a, w), _HIGH_BOUNDS[high](a, w)
        conjuncts.append(b.gt(lower) if strict_low else b.ge(lower))
        conjuncts.append(b.lt(upper) if strict_high else b.le(upper))
    left = TableScan(left_table, alias="a")
    if filtered:
        left = Select(left, col("a.h").gt(lit(30)))
    join = Join(left, TableScan(right_table, alias="b"), and_all(conjuncts))
    return Project(join, {"a_id": col("a.id"), "b_id": col("b.id")})


def _delta_join(executor, plan, keyless):
    view = executor.incremental_view(plan)
    (join,) = [
        op
        for op in view.root.walk()
        if isinstance(op, DeltaJoinOp) and (not op.left_keys) == keyless
    ]
    return join


class TestDeltaJoinTerms:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dims=st.sampled_from([("x",), ("x", "y")]),
        low=st.sampled_from(sorted(_LOW_BOUNDS)),
        high=st.sampled_from(sorted(_HIGH_BOUNDS)),
        strict=st.tuples(st.booleans(), st.booleans()),
        filtered=st.booleans(),
        self_join=st.booleans(),
        indexed=st.booleans(),
        schedule=st.lists(
            st.lists(
                st.sampled_from(["move", "width", "null", "spawn", "destroy", "index"]),
                max_size=6,
            ),
            min_size=4,
            max_size=10,
        ),
    )
    def test_band_view_matches_reference_under_churn(
        self, seed, dims, low, high, strict, filtered, self_join, indexed, schedule
    ):
        """Band joins of every bound shape, maintained through moves, width
        changes that grow and shrink the maxima, NULL coordinates and
        widths, spawns, destroys, and range indexes created and evicted
        mid-run, equal a fresh ``reference()`` execution every tick."""
        rng = random.Random(seed)
        catalog = Catalog()
        names = ["units"] if self_join else ["probes", "units"]

        def toggle_index(name):
            if catalog.table(name).indexes:
                catalog.drop_index(name, "band")
            else:
                cell_size = rng.choice([2.0, 9.0])
                index = rng.choice([SortedIndex("x"), GridIndex(["x", "y"], cell_size)])
                catalog.create_index(name, "band", index)

        for name in names:
            table = catalog.create_table(name, _BAND_SCHEMA, key="id")
            table.insert_many(_band_row(rng, i) for i in range(40))
            if indexed:
                toggle_index(name)
        plan = _band_plan(names[0], names[-1], dims, low, high, *strict, filtered)
        inc = Executor(catalog, EngineConfig(use_incremental=True))
        ref = Executor(catalog, EngineConfig.reference())
        assert inc.register_incremental(plan)
        next_id = 40
        for tick, ops in enumerate(schedule):
            assert_same_rows(inc.execute(plan).rows, ref.execute(plan).rows, f"tick {tick}")
            for op in ops:
                name = rng.choice(names)
                table = catalog.table(name)
                rowid = rng.choice(list(table.row_ids()))
                if op == "move":
                    table.update(rowid, {"x": rng.uniform(0, 40), "y": rng.uniform(0, 40)})
                elif op == "width":
                    table.update(rowid, {"r": rng.choice([0.5, 3, 9.0, 14.0])})
                elif op == "null":
                    table.update(rowid, {rng.choice(["x", "y", "r"]): None})
                elif op == "spawn":
                    table.insert(_band_row(rng, next_id))
                    next_id += 1
                elif op == "destroy" and len(table) > 5:
                    table.delete(rowid)
                elif op == "index":
                    toggle_index(name)
        view = inc.incremental_view(plan)
        # Every churned tick was a delta refresh: nothing fell back to a rebuild.
        assert view.full_refreshes == 1, view.stats()

    def test_inverse_probe_margin_covers_float_rounding(self):
        """``x − r == v`` yet ``v + r < x``: the left row at ``x`` matches a
        right row moved to ``v``, which only the ulp margin of the inverted
        box keeps among the index's candidates."""
        x, r, v = 0.49941906784310824, 0.1, 0.3994190678431082
        assert x - r == v and v + r < x
        catalog = Catalog()
        units = catalog.create_table("units", _BAND_SCHEMA, key="id")
        units.insert({"id": 0, "x": x, "y": 0.0, "r": r, "h": 50})
        units.insert({"id": 1, "x": 5.0, "y": 0.0, "r": r, "h": 50})
        catalog.create_index("units", "by_x", SortedIndex("x"))
        plan = _band_plan("units", "units", ("x",), "column", "column", False, False, False)
        inc = Executor(catalog, EngineConfig(use_incremental=True))
        assert inc.register_incremental(plan)
        inc.execute(plan)
        units.update_by_key(1, {"x": v})
        rows = inc.execute(plan).rows
        assert {"a_id": 0, "b_id": 1} in rows
        assert_same_rows(rows, Executor(catalog, EngineConfig.reference()).execute(plan).rows)
        assert _delta_join(inc, plan, keyless=True).paths["A⋈ΔB"] == "inverse-index"

    def test_keyed_left_join_fetches_by_key_as_groups_come_and_go(self):
        """The accum-loop glue shape: units left-joined with a per-unit
        aggregate.  Groups appear and vanish (a unit's first buff, its last
        buff deleted, buffs of units that do not exist) and units spawn and
        die, so padded rows are retracted and re-emitted; both terms fetch
        the keys the opposite delta names (through the units' filter)
        instead of scanning a side."""
        catalog = Catalog()
        units = catalog.create_table(
            "units", Schema([Column("id", DataType.NUMBER, nullable=False)]), key="id"
        )
        buffs = catalog.create_table(
            "buffs",
            Schema([Column("unit_id", DataType.NUMBER), Column("amount", DataType.NUMBER)]),
        )
        units.insert_many({"id": i} for i in range(30))
        totals = Project(
            Aggregate(TableScan("buffs"), ["unit_id"], [AggregateSpec("total", "sum", col("amount"))]),
            {"bid": col("unit_id"), "total": col("total")},
        )
        alive = Select(TableScan("units", alias="u"), col("u.id").lt(lit(25)))
        plan = Project(
            Join(alive, totals, col("u.id").eq(col("bid")), how="left"),
            {"id": col("u.id"), "total": col("total")},
        )
        inc = Executor(catalog, EngineConfig(use_incremental=True))
        ref = Executor(catalog, EngineConfig.reference())
        assert inc.register_incremental(plan)
        join = _delta_join(inc, plan, keyless=False)
        rng = random.Random(8)
        buff_rowids: list = []
        dead: list = []
        paths: set = set()
        for tick in range(40):
            assert_same_rows(inc.execute(plan).rows, ref.execute(plan).rows, f"tick {tick}")
            paths.update(join.paths.values())
            for _ in range(rng.randrange(1, 4)):
                if buff_rowids and rng.random() < 0.5:
                    buffs.delete(buff_rowids.pop(rng.randrange(len(buff_rowids))))
                else:
                    buff_rowids.append(
                        buffs.insert({"unit_id": rng.randrange(34), "amount": rng.randrange(1, 5)})
                    )
            if tick % 4 == 3:  # a unit dies; every other time one comes back
                doomed = rng.choice(list(units.row_ids()))
                dead.append(units.get(doomed)["id"])
                units.delete(doomed)
                if tick % 8 == 7:
                    units.insert({"id": dead.pop(0)})
        assert paths == {"key"}, paths
        assert inc.incremental_view(plan).full_refreshes == 1

    def test_low_churn_refresh_work_is_counted_not_timed(self):
        """The rts_lowchurn shape (1 000 units, 1 % moving per tick) under
        ``fastest()``: once the advisor's band index exists, a delta refresh
        examines at most a tenth of the pairs a scanning ``Anew ⋈ ΔB`` term
        alone would cross (every ΔB row with every left row, 2 · 10 · 1 000),
        and never runs a full plan.  Counts, not timings."""
        n, size, moved = 1000, 259.0, 10
        world = build_rts_world(
            n,
            world_size=size,
            with_physics=False,
            scripts=["count_neighbours"],
            config=EngineConfig.fastest(),
        )
        rng = random.Random(4)

        def churn_and_tick():
            for object_id in rng.sample(range(n), moved):
                world.set_state(
                    "Unit", object_id, x=rng.uniform(0, size), y=rng.uniform(0, size)
                )
            world.tick()

        for _ in range(6):  # the advisor creates the band index at tick 3
            churn_and_tick()
        (view,) = [view for _plan, view in world.executor._incremental.values()]

        def no_full_plan():
            raise AssertionError("a delta refresh ran a full plan")

        for op in view.root.walk():
            if op.full_plan is not None:
                op.full_plan = SimpleNamespace(rows=no_full_plan)
        before = view.stats()
        for _ in range(10):
            churn_and_tick()
        after = view.stats()
        assert after["delta_refreshes"] - before["delta_refreshes"] == 10, after
        assert after["full_refreshes"] == before["full_refreshes"], after
        per_refresh = (after["join_candidates"] - before["join_candidates"]) / 10
        assert per_refresh <= 0.1 * (2 * moved * n), per_refresh
        report = world.executor.incremental_report()
        assert report[0]["join_candidates"] == after["join_candidates"]
        assert report[0]["join_rows"] == after["join_rows"] > 0
        explained = view.explain()
        assert "[ΔA⋈B: index, A⋈ΔB: inverse-index]" in explained, explained
        assert "[ΔA⋈B: key, A⋈ΔB: key]" in explained, explained

