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

from repro import ExecutionMode
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    Limit,
    Project,
    Select,
    Sort,
    SortKey,
    TableScan,
)
from repro.engine.batch import DeltaBatch
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import col, lit
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.workloads import build_rts_world
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.traffic import build_traffic_world


def _config(**flags) -> EngineConfig:
    """The ``REPRO_ENGINE_PRESET`` config with *flags* changed, so the
    fastest CI leg keeps compiled kernels under every override."""
    return EngineConfig.from_env().replace(**flags)


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
        batch = Executor(catalog, _config(use_incremental=False))
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
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
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
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
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
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
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
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
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
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
        base = TableScan("units")
        assert not self._register(Sort(base, [SortKey(col("x"))]))
        assert not self._register(Limit(base, 5))

    def test_order_dependent_aggregates_fall_back(self):
        for func in ("first", "last", "collect"):
            plan = Aggregate(
                TableScan("units"), ["zone"], [AggregateSpec("v", func, col("x"))]
            )
            assert not self._register(plan)

    def test_disabled_executor_declines(self):
        catalog, _ = _units_catalog()
        executor = Executor(catalog, _config(use_incremental=False))
        assert not executor.register_incremental(TableScan("units"))

    def test_log_truncation_triggers_full_refresh_not_failure(self):
        catalog, units = _units_catalog(n_rows=50)
        plan = Project(TableScan("units"), {"id": col("id")})
        inc = Executor(catalog)
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
        assert inc.register_incremental(plan)
        inc.execute(plan)
        view = inc.incremental_view(plan)
        # A restore resets the change log: the next refresh must rebuild.
        snapshot = units.snapshot()
        units.restore(snapshot)
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "post-restore")
        assert view.full_refreshes >= 2

    def test_high_churn_disables_view(self):
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
        assert inc.incremental_view(plan) is None  # dropped after guard trips
        # The query still executes correctly on the physical path.
        row = Executor(catalog, _config(use_batch=False, use_incremental=False))
        assert_same_rows(inc.execute(plan).rows, row.execute(plan).rows, "post-disable")

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
        w1 = build_rts_world(60, mode=ExecutionMode.COMPILED, config=_config(use_incremental=True))
        w2 = build_rts_world(60, mode=ExecutionMode.COMPILED, config=_config(use_incremental=False))
        for _ in range(8):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "rts")

    def test_rts_idle_world_uses_delta_path(self):
        world = build_rts_world(
            120,
            mode=ExecutionMode.COMPILED,
            with_physics=False,
            scripts=["count_neighbours"],
            config=_config(use_incremental=True),
        )
        reference = build_rts_world(
            120,
            mode=ExecutionMode.COMPILED,
            with_physics=False,
            scripts=["count_neighbours"],
            config=_config(use_incremental=False),
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
            50, mode=ExecutionMode.COMPILED, config=_config(use_incremental=True)
        )
        w2 = build_traffic_world(
            50, mode=ExecutionMode.COMPILED, config=_config(use_incremental=False)
        )
        for _ in range(8):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "traffic")

    def test_marketplace_world(self):
        w1 = build_marketplace_world(
            24, mode=ExecutionMode.COMPILED, config=_config(use_incremental=True)
        )
        w2 = build_marketplace_world(
            24, mode=ExecutionMode.COMPILED, config=_config(use_incremental=False)
        )
        for _ in range(6):
            w1.tick()
            w2.tick()
        _assert_worlds_match(w1, w2, "marketplace")

    def test_randomized_spawn_destroy_churn(self):
        """Structural churn (spawn/destroy between ticks) across both modes."""
        rng1, rng2 = random.Random(99), random.Random(99)
        w1 = build_rts_world(40, mode=ExecutionMode.COMPILED, config=_config(use_incremental=True))
        w2 = build_rts_world(40, mode=ExecutionMode.COMPILED, config=_config(use_incremental=False))
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
