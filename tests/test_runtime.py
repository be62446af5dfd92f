"""Tests for the runtime: effects, update components, physics, pathfinding,
transactions, the world tick loop, multi-tick scheduling, reactive handlers
and the debugging tools."""

from __future__ import annotations

import pytest

from repro import ExecutionMode, GameWorld
from repro.engine.errors import ConstraintViolation
from repro.runtime import (
    EffectStore,
    ExpressionUpdater,
    GridMap,
    Handler,
    OwnershipRegistry,
    PathfindingComponent,
    PathfindingConfig,
    PhysicsComponent,
    PhysicsConfig,
    StateUpdate,
    TransactionEngine,
    UpdateRule,
    astar,
)
from repro.runtime.debug import TickInspector, TickLogger, explain_script_plans
from repro.sgl import parse_program
from repro.sgl.ir import EffectAssignment
from repro.workloads import build_marketplace_world

CLASSES_SOURCE = """
class Unit {
  state:
    number x = 0;
    number y = 0;
    number health = 100;
  effects:
    number damage : sum;
    number vx : avg;
    number vy : avg;
    set loot : union;
}
"""


def unit_classes():
    program = parse_program(CLASSES_SOURCE)
    return {decl.name: decl for decl in program.classes}


class TestEffectStore:
    def test_combines_with_declared_combinators(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "damage", 3))
        store.add(EffectAssignment("Unit", 1, "damage", 4))
        store.add(EffectAssignment("Unit", 1, "vx", 2))
        store.add(EffectAssignment("Unit", 1, "vx", 4))
        combined = store.combine()
        assert combined.value("Unit", 1, "damage") == 7
        assert combined.value("Unit", 1, "vx") == 3
        assert combined.assignment_counts[("Unit", 1)]["damage"] == 2

    def test_set_insert_uses_union(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "loot", "sword", set_insert=True))
        store.add(EffectAssignment("Unit", 1, "loot", "shield", set_insert=True))
        assert store.combine().value("Unit", 1, "loot") == frozenset({"sword", "shield"})

    def test_unknown_effect_defaults_to_choose(self):
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "synthetic", 9))
        store.add(EffectAssignment("Unit", 1, "synthetic", 2))
        assert store.combine().value("Unit", 1, "synthetic") == 2


class TestUpdateComponents:
    def make_view(self, rows):
        class View:
            def objects(self, class_name):
                return rows

            def get_object(self, class_name, object_id):
                for row in rows:
                    if row["id"] == object_id:
                        return row
                return None

            def class_names(self):
                return ["Unit"]

        return View()

    def test_expression_updater_rule(self):
        updater = ExpressionUpdater().rule(
            "Unit", "health", lambda state, effects: state["health"] - effects.get("damage", 0)
        )
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "damage", 30))
        updates = updater.compute_updates(
            self.make_view([{"id": 1, "health": 100}]), store.combine()
        )
        assert updates == [StateUpdate("Unit", 1, "health", 70)]

    def test_ownership_partitioning_enforced(self):
        registry = OwnershipRegistry()
        registry.register(ExpressionUpdater([UpdateRule("Unit", "health", lambda s, e: 1)]))
        with pytest.raises(ConstraintViolation):
            registry.register(ExpressionUpdater([UpdateRule("Unit", "health", lambda s, e: 2)]))

    def test_component_cannot_write_unowned_attribute(self):
        registry = OwnershipRegistry()

        class Rogue(ExpressionUpdater):
            def compute_updates(self, state, effects):
                return [StateUpdate("Unit", 1, "not_owned", 1)]

        rogue = Rogue([UpdateRule("Unit", "health", lambda s, e: 1)])
        registry.register(rogue)
        with pytest.raises(ConstraintViolation):
            registry.compute_all(self.make_view([{"id": 1, "health": 1}]), EffectStore(unit_classes()).combine())


class TestPhysics:
    def test_velocity_integration_and_bounds(self):
        physics = PhysicsComponent(PhysicsConfig(world_max_x=10, world_max_y=10))
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "vx", 4))
        store.add(EffectAssignment("Unit", 1, "vy", 50))
        view = TestUpdateComponents().make_view([{"id": 1, "x": 5.0, "y": 5.0}])
        updates = {(u.object_id, u.attribute): u.value for u in physics.compute_updates(view, store.combine())}
        assert updates[(1, "x")] == 9.0
        assert updates[(1, "y")] == 10.0  # clamped to world bounds

    def test_collision_resolution_separates_stacked_objects(self):
        physics = PhysicsComponent(PhysicsConfig(collision_radius=1.0, world_max_x=100, world_max_y=100))
        view = TestUpdateComponents().make_view(
            [{"id": 1, "x": 10.0, "y": 10.0}, {"id": 2, "x": 10.5, "y": 10.0}]
        )
        updates = physics.compute_updates(view, EffectStore(unit_classes()).combine())
        positions = {}
        for update in updates:
            positions.setdefault(update.object_id, {})[update.attribute] = update.value
        dx = abs(positions[1]["x"] - positions[2]["x"])
        dy = abs(positions[1]["y"] - positions[2]["y"])
        assert max(dx, dy) >= 1.9  # pushed roughly two radii apart
        assert physics.last_collisions

    def test_max_speed_clamp(self):
        physics = PhysicsComponent(PhysicsConfig(max_speed=1.0))
        store = EffectStore(unit_classes())
        store.add(EffectAssignment("Unit", 1, "vx", 10))
        view = TestUpdateComponents().make_view([{"id": 1, "x": 0.0, "y": 0.0}])
        updates = {u.attribute: u.value for u in physics.compute_updates(view, store.combine())}
        assert updates["x"] == pytest.approx(1.0)


class TestPathfinding:
    def test_astar_routes_around_obstacles(self):
        grid = GridMap(10, 10)
        grid.add_obstacle_rect(4, 0, 4, 8)
        path = astar(grid, (0, 0), (9, 0))
        assert path is not None
        assert path[0] == (0, 0) and path[-1] == (9, 0)
        assert all(cell not in grid.obstacles for cell in path)
        assert len(path) > 11  # forced detour around the wall

    def test_astar_unreachable_returns_none(self):
        grid = GridMap(5, 5)
        grid.add_obstacle_rect(2, 0, 2, 4)
        assert astar(grid, (0, 0), (4, 0)) is None

    def test_component_moves_toward_goal(self):
        grid = GridMap(20, 20)
        component = PathfindingComponent(grid, PathfindingConfig(speed=2))
        view = TestUpdateComponents().make_view(
            [{"id": 1, "x": 0.0, "y": 0.0, "goal_x": 5.0, "goal_y": 0.0}]
        )
        updates = {u.attribute: u.value for u in component.compute_updates(view, EffectStore(unit_classes()).combine())}
        assert updates["x"] == 2.0
        assert component.plans_computed == 1


class TestWorldTick:
    def test_compiled_and_interpreted_agree(self, simple_game_source):
        import random

        def build(mode):
            world = GameWorld(simple_game_source, mode=mode)
            world.add_update_rule(
                "Unit", "health", lambda s, e: s["health"] - e.get("damage", 0)
            )
            rng = random.Random(5)
            for i in range(60):
                world.spawn("Unit", player=i % 2, x=rng.uniform(0, 30), y=rng.uniform(0, 30))
            return world

        compiled = build(ExecutionMode.COMPILED)
        interpreted = build(ExecutionMode.INTERPRETED)
        for _ in range(3):
            compiled.tick()
            interpreted.tick()
        healths_c = sorted((o["id"], o["health"]) for o in compiled.objects("Unit"))
        healths_i = sorted((o["id"], o["health"]) for o in interpreted.objects("Unit"))
        assert healths_c == healths_i

    def test_state_frozen_during_effect_step(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.spawn("Unit", x=1, y=1)
        world.tick()
        # After the tick the tables must be thawed again.
        world.set_state("Unit", 0, x=5)
        assert world.get_object("Unit", 0)["x"] == 5

    def test_spawn_destroy_and_unknown_field(self, simple_game_source):
        world = GameWorld(simple_game_source)
        oid = world.spawn("Unit", x=3)
        assert world.count("Unit") == 1
        with pytest.raises(Exception):
            world.spawn("Unit", bogus=1)
        world.destroy("Unit", oid)
        assert world.count("Unit") == 0

    def test_multi_tick_script_advances_pc(self):
        source = """
        class Walker {
          state: number x = 0; number y = 0;
          effects: number vx : sum; number vy : sum;
        }
        script patrol(Walker self) {
          vx <- 1;
          waitNextTick;
          vy <- 1;
        }
        """
        # waitNextTick is sugar for a hand-written state machine (Section 3.2).
        machine_source = """
        class Walker {
          state: number x = 0; number y = 0; number phase = 0;
          effects: number vx : sum; number vy : sum;
        }
        script patrol(Walker self) {
          if (phase == 0) { vx <- 1; }
          if (phase == 1) { vy <- 1; }
        }
        """
        world = GameWorld(source, mode=ExecutionMode.COMPILED)
        machine = GameWorld(machine_source, mode=ExecutionMode.COMPILED)
        machine.add_update_rule("Walker", "phase", lambda s, e: (s["phase"] + 1) % 2)
        for w in (world, machine):
            w.add_update_rule("Walker", "x", lambda s, e: s["x"] + e.get("vx", 0))
            w.add_update_rule("Walker", "y", lambda s, e: s["y"] + e.get("vy", 0))
            w.spawn("Walker")
        for _ in range(4):
            world.tick()
            machine.tick()
            walker, state = world.get_object("Walker", 0), machine.get_object("Walker", 0)
            assert (walker["x"], walker["y"]) == (state["x"], state["y"])
        obj = world.get_object("Walker", 0)
        # Segments alternate: ticks 0,2 move x; ticks 1,3 move y.
        assert obj["x"] == 2 and obj["y"] == 2

    def test_reactive_handler_effects_and_interrupt(self):
        source = """
        class Guard {
          state: number x = 0; number alarm = 0; number hp = 10;
          effects: number vx : sum; number dmg : sum;
        }
        script wander(Guard self) {
          vx <- 1;
          waitNextTick;
          vx <- 1;
          waitNextTick;
          vx <- 1;
        }
        """
        world = GameWorld(source, mode=ExecutionMode.INTERPRETED)
        world.add_update_rule("Guard", "x", lambda s, e: s["x"] + e.get("vx", 0))
        world.add_update_rule("Guard", "hp", lambda s, e: s["hp"] - e.get("dmg", 0))
        world.add_handler(
            Handler(
                name="hurt",
                class_name="Guard",
                condition=lambda row: row["hp"] < 10,
                action=lambda row: [EffectAssignment("Guard", row["id"], "vx", -5)],
                interrupts=("wander",),
            )
        )
        world.spawn("Guard")
        world.tick()
        assert world.reports[-1].handlers_fired == 0
        world.set_state("Guard", 0, hp=5)
        report = world.tick()
        assert report.handlers_fired == 1
        # The queued effect applies next tick, and the pc was reset to 0.
        before_x = world.get_object("Guard", 0)["x"]
        world.tick()
        assert world.get_object("Guard", 0)["x"] == before_x - 5 + 1
        assert world.get_object("Guard", 0)["__pc_wander"] in (0, 1)

        # A handler is sugar for a conditional prologue (Section 3.2), one
        # tick later: it fires after the update step and feeds the next tick.
        guard_class = """
        class Guard {
          state: number x = 0; number hp = 10; number hurt = 0;
          effects: number vx : sum; number heal : sum;
        }
        """
        conditional = GameWorld(
            guard_class + "script react(Guard self) { if (hurt == 1) { heal <- 1; } vx <- 1; }",
            mode=ExecutionMode.COMPILED,
        )
        handled = GameWorld(
            guard_class + "script advance(Guard self) { vx <- 1; }", mode=ExecutionMode.COMPILED
        )
        handled.add_handler(
            Handler(
                name="heal",
                class_name="Guard",
                condition=lambda row: row["hurt"] == 1,
                action=lambda row: [EffectAssignment("Guard", row["id"], "heal", 1)],
            )
        )
        for w in (conditional, handled):
            w.add_update_rule("Guard", "x", lambda s, e: s["x"] + e.get("vx", 0))
            w.add_update_rule("Guard", "hp", lambda s, e: min(10, s["hp"] + e.get("heal", 0)))
            for i in range(6):
                w.spawn("Guard", hp=8 if i % 2 == 0 else 10, hurt=1 if i % 2 == 0 else 0)
        conditional.tick()
        handled.run(2)
        hp = sorted((g["id"], g["hp"]) for g in conditional.objects("Guard"))
        assert hp == sorted((g["id"], g["hp"]) for g in handled.objects("Guard"))
        assert hp[0] == (0, 9)

    def test_vertical_layout_world_matches_single(self, simple_game_source):
        from repro.sgl import SchemaLayout
        import random

        def build(layout):
            world = GameWorld(simple_game_source, mode=ExecutionMode.COMPILED, layout=layout)
            world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
            rng = random.Random(2)
            for i in range(40):
                world.spawn("Unit", player=i % 2, x=rng.uniform(0, 20), y=rng.uniform(0, 20))
            return world

        single = build(SchemaLayout.SINGLE)
        single.tick()
        expected = sorted((o["id"], o["health"]) for o in single.objects("Unit"))
        for layout in (SchemaLayout.VERTICAL, SchemaLayout.PER_EFFECT):
            world = build(layout)
            world.tick()
            assert sorted((o["id"], o["health"]) for o in world.objects("Unit")) == expected


class TestTransactionsEndToEnd:
    @pytest.mark.parametrize("mode", [ExecutionMode.INTERPRETED, ExecutionMode.COMPILED])
    def test_no_duping_or_negative_balances(self, mode):
        world = build_marketplace_world(16, buyers_per_item=4, seller_stock=2, mode=mode)
        total_stock_before = sum(o["stock"] for o in world.objects("Trader"))
        total_gold_before = sum(o["gold"] for o in world.objects("Trader"))
        for _ in range(3):
            report = world.tick()
        traders = world.objects("Trader")
        assert all(t["stock"] >= 0 for t in traders)
        assert all(t["gold"] >= -1e-9 for t in traders)
        # Items and gold are conserved: exchanges only move them around.
        assert sum(t["stock"] for t in traders) == total_stock_before
        assert sum(t["gold"] for t in traders) == pytest.approx(total_gold_before)
        assert world.last_transaction_report.abort_count + world.last_transaction_report.commit_count == report.transactions_submitted

    def test_contention_increases_abort_rate(self):
        rates = []
        for buyers_per_item in (1, 2, 4, 8):
            world = build_marketplace_world(8, buyers_per_item=buyers_per_item, seller_stock=2)
            world.tick()
            rates.append(world.last_transaction_report.abort_rate)
        # Stock 2 serves two buyers per seller; beyond that, aborts grow.
        assert rates[0] == 0.0
        assert rates == sorted(rates)
        assert rates[-1] > 0.5


class TestDebugTools:
    def test_inspector_state_diff_and_effect_trace(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
        world.spawn("Unit", player=0, x=0, y=0)
        world.spawn("Unit", player=1, x=1, y=1)
        inspector = TickInspector(world)
        baseline = inspector.capture_baseline()
        world.tick()
        diff = inspector.diff_since(baseline)
        assert diff["Unit"][0]["health"] == (100, 99)
        trace = inspector.effects_of("Unit", 0)
        assert trace.values["damage"] == 1
        assert "damage" in str(trace)
        assert inspector.table_summary()["Unit"] == 2

    def test_explain_script_plans_mentions_effect(self, simple_game_source):
        world = GameWorld(simple_game_source)
        world.spawn("Unit")
        text = explain_script_plans(world, "brawl")
        assert "Unit.damage" in text
        assert "TableScan" in text

    def test_logger_checkpoints_and_rewind(self, simple_game_source):
        world = GameWorld(simple_game_source, mode=ExecutionMode.INTERPRETED)
        world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
        world.spawn("Unit", player=0, x=0, y=0)
        world.spawn("Unit", player=1, x=1, y=1)
        logger = TickLogger(world, checkpoint_every=2)
        logger.run(5)
        health_at_5 = world.get_object("Unit", 0)["health"]
        logger.rewind_to(3)
        assert world.tick_count == 3
        assert world.get_object("Unit", 0)["health"] == 100 - 3
        # Re-running forward reproduces the same trajectory.
        world.run(2)
        assert world.get_object("Unit", 0)["health"] == health_at_5
