"""E14 — delta-driven incremental execution vs. batch and row execution.

The state-effect tick model means most tables change only sparsely between
ticks, yet the batch path re-snapshots and re-scans full tables every tick.
The incremental path (``repro/engine/operators/incremental.py``) maintains
registered queries' materialized results from per-tick deltas instead, so
per-tick work is proportional to the churn, not the table.

Measurements:

* the acceptance gate: on the shared low-churn scenario
  (``incremental_scenario.py``, 2% of rows mutated per tick) the
  incremental path must beat the batch path by >= 3x across a multi-tick
  run, with all three paths producing equivalent results every tick,
* pytest-benchmark timings of one churn+query tick per path,
* an idle Figure-2 world (units that never move): the delta nets to zero
  and tick cost collapses to bookkeeping.

Floats are compared with ``math.isclose``: the view maintains sums by
running addition/subtraction, which is exact for ints but may differ from
a fresh fold by rounding error.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from incremental_scenario import (
    CHURN_FRACTION,
    SEED,
    build_units_catalog,
    churn_step,
    tick_query,
)
from repro import ExecutionMode
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.workloads import build_rts_world

TICKS = 30


def _normalized(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _assert_equivalent(a, b, context=""):
    na, nb = _normalized(a), _normalized(b)
    assert len(na) == len(nb), f"{context}: {len(na)} vs {len(nb)} rows"
    for row_a, row_b in zip(na, nb):
        for (key_a, val_a), (key_b, val_b) in zip(row_a, row_b):
            assert key_a == key_b, f"{context}: column {key_a} vs {key_b}"
            if isinstance(val_a, float) or isinstance(val_b, float):
                assert math.isclose(val_a, val_b, rel_tol=1e-9, abs_tol=1e-9), (
                    f"{context}: {key_a}={val_a} vs {val_b}"
                )
            else:
                assert val_a == val_b, f"{context}: {key_a}={val_a} vs {val_b}"


def test_incremental_speedup_low_churn():
    """Acceptance: >= 3x over the batch path on a 2%-churn multi-tick run,
    with incremental/batch/row equivalence asserted every tick."""
    catalog, units = build_units_catalog()
    plan = tick_query()
    row_exec = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
    batch_exec = Executor(catalog, EngineConfig(use_incremental=False))
    inc_exec = Executor(catalog)
    assert inc_exec.register_incremental(plan)

    # Correctness first: all three paths must agree under churn.
    rng = random.Random(SEED + 1)
    for tick in range(10):
        inc_rows = inc_exec.execute(plan).rows
        batch_rows = batch_exec.execute(plan).rows
        row_rows = row_exec.execute(plan).rows
        _assert_equivalent(batch_rows, row_rows, f"tick {tick} batch-vs-row")
        _assert_equivalent(inc_rows, batch_rows, f"tick {tick} inc-vs-batch")
        churn_step(units, rng, tick)

    # Timing: per tick, churn once, then run each path on identical state.
    view = inc_exec.incremental_view(plan)
    inc_time = batch_time = row_time = 0.0
    for tick in range(TICKS):
        churn_step(units, rng, tick)
        start = time.perf_counter()
        inc_exec.execute(plan)
        inc_time += time.perf_counter() - start
        start = time.perf_counter()
        batch_exec.execute(plan)
        batch_time += time.perf_counter() - start
        start = time.perf_counter()
        row_exec.execute(plan)
        row_time += time.perf_counter() - start
    assert view.delta_refreshes >= TICKS, view.stats()

    batch_speedup = batch_time / inc_time
    row_speedup = row_time / inc_time
    print(
        f"\n{TICKS} ticks at {CHURN_FRACTION:.0%} churn: "
        f"incremental {inc_time * 1e3:.1f}ms, batch {batch_time * 1e3:.1f}ms, "
        f"row {row_time * 1e3:.1f}ms -> {batch_speedup:.1f}x vs batch, "
        f"{row_speedup:.1f}x vs row"
    )
    assert batch_speedup >= 3.0, f"incremental only {batch_speedup:.2f}x vs batch"


def test_incremental_noop_tick_is_free():
    """With zero churn the view serves the cached multiset without scanning."""
    catalog, units = build_units_catalog(n_rows=2000)
    plan = tick_query()
    executor = Executor(catalog)
    assert executor.register_incremental(plan)
    executor.execute(plan)
    view = executor.incremental_view(plan)
    executor.execute(plan)
    # A no-op update bumps versions but nets to an empty delta.
    rowid = next(units.row_ids())
    units.update(rowid, dict(units.get(rowid)))
    executor.execute(plan)
    assert view.stats()["noop_hits"] == 2
    assert view.stats()["full_refreshes"] == 1


@pytest.mark.benchmark(group="E14-incremental-tick")
def test_tick_incremental(benchmark):
    catalog, units = build_units_catalog()
    plan = tick_query()
    executor = Executor(catalog)
    executor.register_incremental(plan)
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(units, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E14-incremental-tick")
def test_tick_batch(benchmark):
    catalog, units = build_units_catalog()
    plan = tick_query()
    executor = Executor(catalog, EngineConfig(use_incremental=False))
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(units, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E14-incremental-tick")
def test_tick_row(benchmark):
    catalog, units = build_units_catalog()
    plan = tick_query()
    executor = Executor(catalog, EngineConfig(use_batch=False, use_incremental=False))
    executor.execute(plan)
    rng = random.Random(SEED)
    state = {"tick": 0}

    def one_tick():
        churn_step(units, rng, state["tick"])
        state["tick"] += 1
        executor.execute(plan)

    benchmark(one_tick)


@pytest.mark.benchmark(group="E14-incremental-idle-world")
def test_idle_fig2_world_incremental(benchmark):
    world = build_rts_world(
        300,
        mode=ExecutionMode.COMPILED,
        with_physics=False,
        scripts=["count_neighbours"],
        config=EngineConfig(use_incremental=True),
    )
    world.tick()
    benchmark(world.tick)


@pytest.mark.benchmark(group="E14-incremental-idle-world")
def test_idle_fig2_world_batch(benchmark):
    world = build_rts_world(
        300,
        mode=ExecutionMode.COMPILED,
        with_physics=False,
        scripts=["count_neighbours"],
        config=EngineConfig(use_incremental=False),
    )
    world.tick()
    benchmark(world.tick)
