"""E3 — spatial-index range join vs. nested-loop join (Sections 2, 4).

The "units in range" query is the workhorse of SGL workloads.  The grid
based range-probe join the planner picks should beat the naive nested-loop
plan, with the gap growing quadratically in the number of units.
"""

from __future__ import annotations

import pytest

from repro.bench import Experiment, measure
from repro.engine import (
    Aggregate,
    AggregateSpec,
    Catalog,
    Column,
    DataType,
    EngineConfig,
    Executor,
    Join,
    Schema,
    Select,
    TableScan,
    and_all,
    col,
)
from repro.workloads.state_switching import unit_positions


def make_catalog(n: int) -> Catalog:
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
            Column("range", DataType.NUMBER),
            Column("strength", DataType.NUMBER),
        ]
    )
    table = catalog.create_table("unit", schema, key="id")
    table.insert_many(unit_positions(n, "exploring"))
    return catalog


def range_join_plan():
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


@pytest.mark.benchmark(group="E3-spatial-join")
def test_optimized_range_probe_join(benchmark):
    executor = Executor(make_catalog(400), EngineConfig(optimize=True))
    plan = range_join_plan()
    benchmark(lambda: executor.execute(plan))


@pytest.mark.benchmark(group="E3-spatial-join")
def test_naive_nested_loop_join(benchmark):
    executor = Executor(make_catalog(400), EngineConfig(optimize=False, use_indexes=False))
    plan = range_join_plan()
    benchmark(lambda: executor.execute(plan, cache=False))


def test_optimized_join_wins_and_gap_grows(scaling_sizes, capsys):
    experiment = Experiment(
        "E3: grid range-probe join vs nested-loop join",
        columns=["units", "optimized_s", "naive_s", "speedup"],
    )
    speedups = []
    for n in scaling_sizes:
        catalog = make_catalog(n)
        optimized = Executor(catalog, EngineConfig(optimize=True))
        naive = Executor(catalog, EngineConfig(optimize=False, use_indexes=False))
        plan = range_join_plan()
        optimized_s = measure(lambda: optimized.execute(plan), repeat=2)
        naive_s = measure(lambda: naive.execute(plan, cache=False), repeat=2)
        speedups.append(naive_s / optimized_s)
        experiment.add_row(units=n, optimized_s=optimized_s, naive_s=naive_s, speedup=speedups[-1])
    with capsys.disabled():
        experiment.print()
    assert speedups[-1] > 1.0
    assert speedups[-1] >= speedups[0] * 0.8  # gap does not shrink materially
