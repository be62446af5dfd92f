"""Which operators plans build: the census guard, and the SGL construct
that keeps ``Union`` alive.

The census runs every shipped workload world, the two-site accum world
below and a pathfinding closure under the presets, counting each row,
batch and delta operator constructed.  Every operator class
:mod:`repro.engine.operators` exports must be built there, or sit on the
allowlist naming the test that builds it — so an operator no plan can
reach fails CI instead of lingering.  Under the default preset the census
also pins what kernels leave to the row operators.
"""

from __future__ import annotations

import inspect
import random
from collections import Counter

import pytest

import repro.engine.operators as operators
from repro import ExecutionMode, GameWorld
from repro.engine import EngineConfig
from repro.engine.compile import kernels
from repro.engine.algebra import Join, explain
from repro.engine.compile.exprgen import KernelDecline
from repro.engine.optimizer import Planner, apply_standard_rewrites
from repro.engine.operators import BatchOperator, DeltaOperator, DeltaUnionOp, PhysicalOperator
from repro.runtime.pathfinding import GridMap, GridReachability
from repro.workloads import build_contagion_world, build_rts_world, build_traffic_world
from repro.workloads.marketplace import build_marketplace_world

from test_fixpoint import TWO_SCRIPTS_SOURCE, build_chain_world

#: The two targets (``fastest()`` is ``EngineConfig()`` under the e2e
#: harness's name, so it would only run the census twice).
PRESETS = {
    "reference": EngineConfig.reference(),
    "default": EngineConfig(),
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
    # The row-order oracle of the index-probing band kernel: only kernels
    # probe indexes.
    "IndexProbeJoinOp": (
        "tests/test_compiled_kernels.py::TestIndexProbingBandKernel"
        "::test_kernel_probes_index_in_interpreted_order"
    ),
}

CENSUS_WORLDS = {
    # >= 128 units, so the index advisor indexes the band join.
    "rts": lambda config: build_rts_world(200, seed=3, config=config),
    "traffic": lambda config: build_traffic_world(40, config=config),
    "marketplace": lambda config: build_marketplace_world(
        40, mode=ExecutionMode.COMPILED, config=config
    ),
    "contagion": lambda config: build_contagion_world(40, config=config),
    "two_site": two_site_world,
}


def test_every_exported_operator_is_built_by_some_plan(monkeypatch):
    built = record_constructions(monkeypatch)
    for config in PRESETS.values():
        for build in CENSUS_WORLDS.values():
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


#: The row operators each census world builds under the default preset:
#: the bridge, effect sinks, and the plans over a node with no batch
#: operator.  Kernels serve everything else.
DEFAULT_ROW_OPERATORS = {
    "rts": {"BatchBridgeOp", "EffectSinkOp"},
    "traffic": {"BatchBridgeOp", "EffectSinkOp"},
    "marketplace": {"BatchBridgeOp"},
    # The plans around the Fixpoint, which has no batch operator.
    "contagion": {"BatchBridgeOp", "EffectSinkOp", "FixpointOp", "HashJoinOp", "ProjectOp"},
    # Union has no batch operator: the aggregate and glue join above it.
    "two_site": {
        "BatchBridgeOp", "EffectSinkOp", "HashAggregateOp", "HashJoinOp", "ProjectOp", "UnionOp"
    },
}

#: Contagion's kernel declines, as (declined node, decline): each has the
#: Fixpoint at or below its join side.
CONTAGION_DECLINES = {
    # Fixpoint ⋈ Site n
    ("Join", "join-shape", "no batch operator for Fixpoint"),
    # Site self ⋈ (Fixpoint ⋈ Site n), and the effect projection over it.
    ("Join", "join-shape", "no batch operator for Join"),
    ("Project", "join-shape", "no batch operator for Join"),
}


def test_default_preset_leaves_only_fixpoint_and_union_plans_to_rows(monkeypatch):
    """Kernels cover every join shape of the shipped workloads: no left,
    cross or nested-loop join falls back, no compiler error is hidden,
    and no world builds a row operator it did not need before."""
    built = record_constructions(monkeypatch)
    declines: set = set()
    analyze = kernels._analyze

    def recording(plan, planner):
        try:
            return analyze(plan, planner)
        except KernelDecline as decline:
            declines.add((type(plan).__name__, decline.reason, str(decline)))
            raise

    monkeypatch.setattr(kernels, "_analyze", recording)
    for name, build in CENSUS_WORLDS.items():
        built.clear()
        declines.clear()
        world = build(EngineConfig())
        for _ in range(4):
            world.tick()
        report = world.executor.kernel_report()
        assert report["errors"] == 0, (name, report)
        row_operators = {cls.__name__ for cls in built if issubclass(cls, PhysicalOperator)}
        assert row_operators == DEFAULT_ROW_OPERATORS[name], name
        if name in ("rts", "traffic", "marketplace"):
            assert report["declined_by_reason"]["join-shape"] == 0, (name, declines)
        if name == "contagion":
            assert declines == CONTAGION_DECLINES


def _capped_chain_world(config: EngineConfig) -> GameWorld:
    """The chain world with an ``iterate`` cap on its reach (``max_rounds``)."""
    source = TWO_SCRIPTS_SOURCE.replace(
        "on n.idx == cur.next {", "on n.idx == cur.next iterate 2 {"
    )
    world = GameWorld(source, config=config)
    world.spawn_many(
        "Node", [{"idx": i, "next": i + 1, "origin": 1 if i == 0 else 0} for i in range(6)]
    )
    return world


#: The census worlds plus the fixpoint chain worlds, whose joins over a
#: ``Fixpoint`` a cost-based reorder would rearrange.
JOIN_ORDER_WORLDS = {
    **CENSUS_WORLDS,
    "chain": lambda config: build_chain_world(8, ExecutionMode.COMPILED, config=config),
    "chain_capped": _capped_chain_world,
}


def _cross_joins(plan) -> int:
    return sum(isinstance(node, Join) and node.how == "cross" for node in plan.walk())


@pytest.mark.parametrize("name", sorted(JOIN_ORDER_WORLDS))
def test_planner_keeps_the_compiled_join_order(name, monkeypatch):
    """The plan is the rewrites of what the compiler wrote: every tick
    query's optimized plan reads like ``apply_standard_rewrites`` of its
    logical plan, and no join becomes a cross product it was not."""
    planned = []
    plan = Planner.plan

    def recording(self, logical):
        result = plan(self, logical)
        planned.append((self.catalog, result))
        return result

    monkeypatch.setattr(Planner, "plan", recording)
    world = JOIN_ORDER_WORLDS[name](EngineConfig())
    for _ in range(4):  # tick 4 re-plans against the advisor's index
        world.tick()
    assert planned
    for catalog, result in planned:
        rewritten = apply_standard_rewrites(result.logical, catalog)
        assert explain(result.optimized) == explain(rewritten)
        assert _cross_joins(result.optimized) <= _cross_joins(result.logical)
