"""EngineConfig: the one public switchboard for engine feature paths.

Covers the consolidation contract: two presets (the compiled default and
the ``reference()`` row path), and the plumbing — one config object
threaded through ``GameWorld`` → ``Executor`` → ``Planner`` and surfaced
by the inspector.
"""

from __future__ import annotations

import inspect

import pytest

from repro import ExecutionMode
from repro.engine import EngineConfig, Executor
from repro.engine.compile import KernelLowering
from repro.engine.optimizer import Planner
from repro.engine.optimizer.adaptive import IndexAdvisor
from repro.runtime.debug.inspector import TickInspector
from repro.workloads import (
    build_contagion_world,
    build_rts_world,
    build_traffic_world,
)
from repro.workloads.marketplace import build_marketplace_world

#: Every shipped world builder, small; each takes ``config=`` or none.
BUILDERS = {
    "rts": lambda **config: build_rts_world(5, with_physics=False, **config),
    "traffic": lambda **config: build_traffic_world(5, **config),
    "marketplace": lambda **config: build_marketplace_world(
        8, mode=ExecutionMode.COMPILED, **config
    ),
    "contagion": lambda **config: build_contagion_world(6, **config),
}

TARGETS = {"default": EngineConfig(), "reference": EngineConfig.reference()}


class TestPresets:
    def test_defaults(self):
        config = EngineConfig()
        assert config.use_batch and config.use_incremental
        assert list(config.as_dict()) == ["use_batch", "use_incremental"]

    def test_fastest_enables_compilation(self):
        # Kernels are the batch layer: the default already compiles, and
        # fastest() is its name in the e2e harness.
        assert EngineConfig.fastest() == EngineConfig()
        assert len({EngineConfig(), EngineConfig.reference()}) == 2

    def test_reference_is_row_path_only(self):
        config = EngineConfig.reference()
        assert not config.use_batch
        assert not config.use_incremental

    def test_frozen(self):
        with pytest.raises(Exception):
            EngineConfig().use_batch = False

    def test_replace_and_as_dict_round_trip(self):
        config = EngineConfig().replace(use_batch=False, use_incremental=False)
        assert config == EngineConfig.reference()
        assert EngineConfig(**config.as_dict()) == config


class TestThreading:
    """One object, threaded through every layer unchanged."""

    def test_world_propagates_config_to_executor_and_planner(self):
        config = EngineConfig(use_batch=False)
        world = build_rts_world(5, with_physics=False, config=config)
        assert world.config is config
        assert world.executor.config is config
        assert world.executor.planner.config is config
        assert world.executor.planner.physical_planner.config is config
        assert world.index_advisor is None  # only kernels probe indexes

    def test_default_constructed_layers_use_the_default_config(self, unit_catalog):
        world = build_rts_world(5, with_physics=False)
        assert world.config == EngineConfig()
        assert world.index_advisor is not None
        assert Executor(unit_catalog).config == EngineConfig()
        assert Planner(unit_catalog).config == EngineConfig()

    def test_boolean_flag_keywords_are_rejected(self, unit_catalog):
        # Engine options arrive only as config=EngineConfig(...).
        with pytest.raises(TypeError):
            Executor(unit_catalog, **{"use_batch": False})
        with pytest.raises(TypeError):
            build_rts_world(5, with_physics=False, **{"use_batch": False})

    def test_tick_counters_surface_active_config(self):
        config = EngineConfig.fastest()
        world = build_rts_world(5, with_physics=False, config=config)
        world.tick()
        counters = TickInspector(world).tick_counters()
        assert counters["engine_config"] == config.as_dict()
        assert counters["engine_config"]["use_batch"] is True

    def test_kernel_lowering_requires_batch_path(self, unit_catalog):
        with_batch = Executor(unit_catalog, EngineConfig())
        without_batch = Executor(unit_catalog, EngineConfig(use_batch=False))
        lowering = with_batch.planner.physical_planner.kernel_lowering
        assert isinstance(lowering, KernelLowering)
        assert lowering.cache is with_batch._kernels  # cleared with the plans
        assert without_batch.planner.physical_planner.kernel_lowering is None


class TestEveryBuilder:
    """Each ``build_*_world`` reaches the same two targets."""

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_config_none_means_the_default(self, builder):
        world = BUILDERS[builder]()
        assert world.config == EngineConfig()
        assert world.executor.config is world.config
        assert world.executor.planner.config is world.config

    @pytest.mark.parametrize("target", sorted(TARGETS))
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_index_advisor_exists_only_on_the_compiled_target(self, builder, target):
        """Only kernels probe indexes, so only ``use_batch`` builds the
        advisor that creates them, tuned by its own defaults."""
        config = TARGETS[target]
        world = BUILDERS[builder](config=config)
        advisor = world.index_advisor
        assert world.executor.index_advisor is advisor
        if not config.use_batch:
            assert advisor is None
            return
        defaults = inspect.signature(IndexAdvisor).parameters
        assert advisor.create_after == defaults["create_after"].default == 3
        assert advisor.evict_after == defaults["evict_after"].default == 30
