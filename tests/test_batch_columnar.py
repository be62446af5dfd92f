"""Batch (columnar) execution path: unit tests and row-path equivalence.

The batch path — compiled kernels over column batches — must be
indistinguishable from the row path in results and row order, only
faster.  These tests cover the :class:`ColumnBatch` container, kernel
expression codegen, plan-level equivalence on synthetic plans, and
end-to-end equivalence on the rts / traffic / marketplace workloads.
"""

from __future__ import annotations

import random

import pytest

from repro import ExecutionMode
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    Project,
    Select,
    TableScan,
    Union,
)
from repro.engine.batch import ColumnBatch
from repro.engine.catalog import Catalog
from repro.engine.compile.exprgen import ExprGen, SourceBuilder
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import (
    BinaryOp,
    Conditional,
    FunctionCall,
    and_all,
    batch_supported,
    col,
    lit,
    resolve_batch_column,
)
from repro.engine.operators import BatchBridgeOp
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.workloads import build_rts_world, build_traffic_world
from repro.workloads.marketplace import build_marketplace_world



# -- ColumnBatch container ---------------------------------------------------------


def test_column_batch_roundtrip_and_selection():
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}]
    batch = ColumnBatch.from_rows(("a", "b"), rows)
    assert len(batch) == 3
    assert batch.to_rows() == rows
    picked = batch.with_selection([2, 0])
    assert len(picked) == 2
    assert picked.to_rows() == [{"a": 3, "b": "z"}, {"a": 1, "b": "x"}]
    # Compaction produces dense lists but identical rows.
    assert picked.compact().to_rows() == picked.to_rows()


def test_column_batch_qualify_shares_lists():
    batch = ColumnBatch.from_rows(("a",), [{"a": 1}, {"a": 2}])
    qualified = batch.qualify("u")
    assert qualified.names == ("u.a",)
    assert qualified.column("u.a") is batch.column("a")
    assert qualified.to_rows() == [{"u.a": 1}, {"u.a": 2}]


# -- kernel expression codegen -------------------------------------------------------


def _random_rows(n=200, seed=7):
    rng = random.Random(seed)
    return [
        {
            "x": rng.uniform(-10, 10),
            "y": rng.uniform(-10, 10),
            "n": rng.randint(0, 5),
            "maybe": None if rng.random() < 0.3 else rng.uniform(0, 1),
        }
        for _ in range(n)
    ]


@pytest.mark.parametrize(
    "expr",
    [
        col("x").gt(lit(0)).and_(col("y").le(lit(5))),
        col("x") + col("y") * lit(2),
        col("maybe").gt(lit(0.5)),
        (col("maybe") + lit(1)).eq(col("maybe") + lit(1)),
        Conditional(col("n").ge(lit(3)), col("x"), col("y")),
        FunctionCall("distance", [col("x"), col("y"), lit(0.0), lit(0.0)]),
        FunctionCall("size", [lit(None)]),
        BinaryOp("%", col("n"), lit(2)).eq(lit(0)).or_(col("x").lt(lit(-5))),
    ],
)
def test_compile_batch_matches_row_evaluation(expr):
    """The code kernels generate for an expression — its value and its
    filter-guard form — agrees with ``Expression.evaluate`` on every row."""
    rows = _random_rows()
    names = ("x", "y", "n", "maybe")
    assert batch_supported(expr, names)
    builder = SourceBuilder()
    gen = ExprGen(
        lambda node: f"_r[{names.index(resolve_batch_column(node.name, names))}]", builder
    )
    source = f"def _fn(_r):\n    return {gen.value(expr)}, bool({gen.boolean(expr)})\n"
    env = dict(builder.env)  # constants the generator captured
    exec(source, env)
    for row in rows:
        expected = expr.evaluate(row)
        assert env["_fn"](tuple(row[name] for name in names)) == (expected, bool(expected))


def test_resolve_batch_column_mirrors_row_fallback():
    names = ("u.x", "u.y", "v.x")
    assert resolve_batch_column("u.x", names) == "u.x"
    assert resolve_batch_column("y", names) == "u.y"
    assert resolve_batch_column("x", names) is None  # ambiguous: u.x vs v.x
    assert resolve_batch_column("z", names) is None


def test_batch_supported_rejects_unknown_columns():
    assert not batch_supported(col("missing").gt(lit(0)), ("a", "b"))
    assert batch_supported(col("missing").gt(lit(0)), ("a",), context={"missing": 1})


# -- operator-level equivalence on synthetic plans -----------------------------------


def _make_catalog(n=500, seed=11):
    rng = random.Random(seed)
    catalog = Catalog()
    units = catalog.create_table(
        "units",
        Schema(
            [
                Column("id", DataType.NUMBER),
                Column("player", DataType.NUMBER),
                Column("x", DataType.NUMBER),
                Column("hp", DataType.NUMBER, nullable=True),
                Column("ref", DataType.NUMBER, nullable=True),
            ]
        ),
    )
    for i in range(n):
        units.insert(
            {
                "id": i,
                "player": i % 3,
                "x": rng.uniform(0, 100),
                "hp": None if rng.random() < 0.1 else rng.uniform(0, 100),
                # A NULL or dangling reference pads a left join's row.
                "ref": None if i % 7 == 0 else (i * 37) % (n + 50),
            }
        )
    teams = catalog.create_table(
        "teams",
        Schema([Column("team", DataType.NUMBER), Column("bonus", DataType.NUMBER)]),
    )
    for p in range(2):  # deliberately missing team 2: exercises outer padding
        teams.insert({"team": p, "bonus": 10 * (p + 1)})
    return catalog


def _accum_glue_plan():
    """The shape an SGL accum loop compiles to: a left join gluing a
    grouped band-join aggregate back onto ``self``; units of players 1 and
    2 have no group, so their rows are padded."""
    band = Join(
        Select(TableScan("units", alias="self"), col("self.player").eq(lit(0))),
        TableScan("units", alias="u"),
        and_all(
            [
                col("u.x").ge(col("self.x") - lit(2)),
                col("u.x").le(col("self.x") + lit(2)),
            ]
        ),
    )
    contributions = Project(band, [("__key__", col("self.id")), ("__value__", lit(1))])
    counts = Project(
        Aggregate(contributions, ["__key__"], [AggregateSpec("cnt", "sum", col("__value__"))]),
        [("__accum_key_cnt_1", col("__key__")), ("cnt", col("cnt"))],
    )
    glue = Join(
        Select(TableScan("units", alias="self"), lit(True)),
        counts,
        col("self.id").eq(col("__accum_key_cnt_1")),
        how="left",
    )
    cnt = Conditional(col("cnt").eq(lit(None)), lit(0), col("cnt"))
    return Project(
        Select(glue, cnt.le(lit(3))), [("__target__", col("self.id")), ("__value__", cnt)]
    )


PLANS = {
    "filter-project": lambda: Project(
        Select(TableScan("units"), col("x").gt(lit(30)).and_(col("hp").gt(lit(20)))),
        [("id", col("id")), ("scaled", col("x") * lit(2))],
    ),
    "global-aggregate": lambda: Aggregate(
        Select(TableScan("units"), col("player").eq(lit(1))),
        [],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("total", "sum", col("hp")),
            AggregateSpec("lo", "min", col("x")),
            AggregateSpec("hi", "max", col("x")),
            AggregateSpec("mean", "avg", col("hp")),
        ],
    ),
    "grouped-aggregate": lambda: Aggregate(
        TableScan("units"),
        ["player"],
        [
            AggregateSpec("n", "count"),
            AggregateSpec("hp", "sum", col("hp")),
            AggregateSpec("ids", "collect", col("id")),
            AggregateSpec("chosen", "choose", col("id")),
        ],
    ),
    "hash-join": lambda: Join(
        TableScan("units", alias="u"),
        TableScan("teams", alias="t"),
        col("u.player").eq(col("t.team")),
    ),
    "left-join-with-residual": lambda: Join(
        TableScan("units", alias="u"),
        TableScan("teams", alias="t"),
        col("u.player").eq(col("t.team")).and_(col("u.x").gt(lit(50))),
        how="left",
    ),
    "nested-loop-join": lambda: Join(
        Select(TableScan("units", alias="u"), col("u.id").lt(lit(40))),
        Select(TableScan("teams", alias="t"), lit(True)),
        BinaryOp("!=", col("u.player"), col("t.team")),
    ),
    "cross-join": lambda: Join(
        Select(TableScan("units", alias="u"), col("u.id").lt(lit(10))),
        TableScan("teams", alias="t"),
        None,
        how="cross",
    ),
    "join-then-aggregate": lambda: Aggregate(
        Join(
            TableScan("units", alias="u"),
            TableScan("teams", alias="t"),
            col("u.player").eq(col("t.team")),
        ),
        ["t.team"],
        [AggregateSpec("n", "count"), AggregateSpec("power", "sum", col("u.hp") + col("t.bonus"))],
    ),
    # The reference read of an SGL script: NULL and dangling refs pad.
    "ref-read-left-join": lambda: Project(
        Join(
            Select(TableScan("units", alias="self"), col("self.hp").gt(lit(30))),
            TableScan("units", alias="__ref_u"),
            col("self.ref").eq(col("__ref_u.id")),
            how="left",
        ),
        [("__target__", col("self.id")), ("__value__", col("__ref_u.x"))],
    ),
    "accum-glue-left-join": _accum_glue_plan,
    # Union stays on the row path but its subtrees should still batch.
    "union-above-batch": lambda: Union(
        Project(Select(TableScan("units"), col("x").gt(lit(60))), [("id", col("id"))]),
        Project(Select(TableScan("units"), col("hp").lt(lit(10))), [("id", col("id"))]),
    ),
}


@pytest.mark.parametrize("name", sorted(PLANS))
def test_batch_row_equivalence(name):
    catalog = _make_catalog()
    plan = PLANS[name]()
    row_rows = Executor(catalog, EngineConfig(use_batch=False)).execute(plan).rows
    executor = Executor(catalog, EngineConfig(use_batch=True))
    assert executor.execute(plan).rows == row_rows  # same rows, same order
    report = executor.kernel_report()
    assert report["declined"] == 0 and report["errors"] == 0, report


def test_order_sensitive_equivalence():
    """first/last/collect aggregates observe input order: must match exactly."""
    catalog = _make_catalog()
    plan = Aggregate(
        Select(TableScan("units"), col("x").gt(lit(20))),
        ["player"],
        [
            AggregateSpec("first_id", "first", col("id")),
            AggregateSpec("last_id", "last", col("id")),
            AggregateSpec("ids", "collect", col("id")),
        ],
    )
    row_rows = Executor(catalog, EngineConfig(use_batch=False)).execute(plan).rows
    batch_rows = Executor(catalog, EngineConfig(use_batch=True)).execute(plan).rows
    assert batch_rows == row_rows


def test_batch_path_is_chosen_and_flagged():
    catalog = _make_catalog()
    plan = PLANS["filter-project"]()
    executor = Executor(catalog, EngineConfig(use_batch=True))
    planned = executor.prepare(plan)
    assert planned.uses_batch
    assert isinstance(planned.physical, BatchBridgeOp)
    assert "CompiledKernel" in planned.physical.explain()
    row_planned = Executor(catalog, EngineConfig(use_batch=False)).prepare(plan)
    assert not row_planned.uses_batch


def test_batch_cache_invalidated_on_mutation():
    catalog = _make_catalog(n=10)
    table = catalog.table("units")
    first = table.to_batch()
    assert first is table.to_batch()  # cached while the version is stable
    table.insert({"id": 1000, "player": 0, "x": 1.0, "hp": 1.0})
    second = table.to_batch()
    assert second is not first
    assert len(second) == 11


def test_empty_table_aggregate_identity():
    catalog = Catalog()
    catalog.create_table("empty", Schema([Column("v", DataType.NUMBER)]))
    plan = Aggregate(
        TableScan("empty"),
        [],
        [AggregateSpec("n", "count"), AggregateSpec("s", "sum", col("v"))],
    )
    for use_batch in (False, True):
        rows = Executor(catalog, EngineConfig(use_batch=use_batch)).execute(plan).rows
        assert rows == [{"n": 0, "s": 0}]


# -- end-to-end workload equivalence -------------------------------------------------


def _state_snapshot(world):
    out = {}
    for name in sorted(world.catalog.table_names()):
        table = world.catalog.table(name)
        out[name] = sorted(tuple(sorted(r.items())) for r in table.rows())
    return out


def _assert_world_equivalence(make_world, ticks=3):
    batch_world = make_world(use_batch=True)
    row_world = make_world(use_batch=False)
    for _ in range(ticks):
        batch_world.tick()
        row_world.tick()
    assert _state_snapshot(batch_world) == _state_snapshot(row_world)
    return batch_world


def test_rts_workload_equivalence():
    world = _assert_world_equivalence(
        lambda use_batch: build_rts_world(
            60, mode=ExecutionMode.COMPILED, config=EngineConfig(use_batch=use_batch)
        )
    )
    # The tick queries should actually exercise the batch path somewhere.
    assert any(entry["batch"] for entry in world.executor.cache_report())


def test_traffic_workload_equivalence():
    _assert_world_equivalence(
        lambda use_batch: build_traffic_world(80, config=EngineConfig(use_batch=use_batch))
    )


def test_marketplace_workload_equivalence():
    _assert_world_equivalence(
        lambda use_batch: build_marketplace_world(30, config=EngineConfig(use_batch=use_batch))
    )
