"""Which operators plans build: the census guard, and the SGL construct
that keeps ``Union`` alive.

The census runs every shipped workload world, the two-site accum world
below and a pathfinding closure under the three presets, counting each
row, batch and delta operator constructed.  Every operator class
:mod:`repro.engine.operators` exports must be built there, or sit on the
allowlist naming the test that builds it — so an operator no plan can
reach fails CI instead of lingering.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter

import pytest

import repro.engine.operators as operators
from repro import ExecutionMode, GameWorld
from repro.engine import EngineConfig
from repro.engine.operators import BatchOperator, DeltaOperator, DeltaUnionOp, PhysicalOperator
from repro.runtime.pathfinding import GridMap, GridReachability
from repro.workloads import build_contagion_world, build_rts_world, build_traffic_world
from repro.workloads.marketplace import build_marketplace_world

PRESETS = {
    "reference": EngineConfig.reference(),
    "default": EngineConfig(),
    "fastest": EngineConfig.fastest(),
}

#: An accum loop with two assignment sites: the compiler unions one
#: contribution plan per site before aggregating.
TWO_SITE_SOURCE = """
class Unit {
  state:
    number player = 0;
  effects:
    number score : sum;
}
script tally(Unit self) {
  accum number s with sum over Unit u from Unit {
    if (u.player == player) { s <- 1; } else { s <- 10; }
  } in {
    score <- s;
  }
}
"""


def two_site_world(config: EngineConfig, mode: ExecutionMode = ExecutionMode.COMPILED) -> GameWorld:
    world = GameWorld(TWO_SITE_SOURCE, mode=mode, config=config)
    world.spawn_many("Unit", [{"player": i % 3} for i in range(12)])
    return world


def record_constructions(monkeypatch) -> Counter:
    """Count every operator constructed from now on, by class."""
    built: Counter = Counter()
    for base in (PhysicalOperator, BatchOperator, DeltaOperator):
        original = base.__init__

        def init(self, *args, _original=original, **kwargs):
            built[type(self)] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(base, "__init__", init)
    return built


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_two_site_accum_loop_matches_interpreter(preset, monkeypatch):
    built = record_constructions(monkeypatch)
    config = PRESETS[preset]
    compiled = two_site_world(config)
    interpreted = two_site_world(config, ExecutionMode.INTERPRETED)
    rng = random.Random(5)
    for tick in range(6):
        compiled.tick()
        interpreted.tick()
        assert compiled.last_effects.values == interpreted.last_effects.values, f"tick {tick}"
        unit, player = rng.randrange(12), rng.randrange(3)
        for world in (compiled, interpreted):
            world.set_state("Unit", unit, player=player)
    assert built[operators.UnionOp] > 0
    if config.use_incremental:
        (view_stats,) = compiled.executor.incremental_report()
        assert view_stats["state"] == "live"
        assert view_stats["delta_refreshes"] > 0
        (view,) = [view for _, view in compiled.executor._incremental.values()]
        assert any(isinstance(op, DeltaUnionOp) for op in view.root.walk())


#: Exported operators the census worlds do not build, each with the test
#: that does.
ALLOWLIST = {
    "ExchangeOp": "tests/test_sharded_world.py::TestShardAlgebra::test_exchange_labels_and_excludes",
    "IndexRangeScanOp": (
        "tests/test_engine_operators_optimizer.py::TestOptimizer"
        "::test_index_scan_selected_for_constant_range"
    ),
    "MaterializedSourceOp": "tests/test_batch_columnar.py::test_rts_workload_equivalence",
}

CENSUS_WORLDS = [
    # >= 128 units, so the index advisor indexes the band join.
    lambda config: build_rts_world(200, seed=3, config=config),
    lambda config: build_traffic_world(40, config=config),
    lambda config: build_marketplace_world(40, mode=ExecutionMode.COMPILED, config=config),
    lambda config: build_contagion_world(40, config=config),
    two_site_world,
]


def test_every_exported_operator_is_built_by_some_plan(monkeypatch):
    built = record_constructions(monkeypatch)
    for config in PRESETS.values():
        for build in CENSUS_WORLDS:
            world = build(config)
            # The advisor creates its first index at the end of tick 3, so
            # tick 4 plans against it.
            for _ in range(4):
                world.tick()
        GridReachability(GridMap(4, 4, obstacles={(1, 1)}), config).reachable_set((0, 0))
    bases = (PhysicalOperator, BatchOperator, DeltaOperator)
    exported = [getattr(operators, name) for name in operators.__all__]
    operator_classes = [
        cls
        for cls in exported
        if inspect.isclass(cls) and issubclass(cls, bases) and cls not in bases
    ]
    never_built = {cls.__name__ for cls in operator_classes if not built[cls]}
    assert never_built == set(ALLOWLIST)
