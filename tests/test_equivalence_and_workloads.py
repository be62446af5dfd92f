"""Equivalence of compiled vs. interpreted execution, plus workload sanity.

The central correctness claim of the paper's architecture is that compiling
imperative scripts to relational plans preserves their per-object
semantics.  These tests run the same programs both ways — including a
hypothesis-generated sweep over world sizes and random seeds — and require
identical post-tick state.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import ExecutionMode, GameWorld
from repro.workloads import (
    build_marketplace_world,
    build_rts_world,
    build_traffic_world,
)


def state_fingerprint(world: GameWorld, class_name: str, attributes: list[str]):
    rows = world.objects(class_name)
    return sorted(
        (row["id"], tuple(round(float(row[a]), 9) for a in attributes)) for row in rows
    )


class TestCompiledInterpretedEquivalence:
    def test_rts_combat_equivalence(self):
        worlds = [
            build_rts_world(80, mode=mode, seed=3, with_physics=True)
            for mode in (ExecutionMode.COMPILED, ExecutionMode.INTERPRETED)
        ]
        for _ in range(3):
            for world in worlds:
                world.tick()
        fingerprints = [
            state_fingerprint(w, "Unit", ["health", "x", "y"]) for w in worlds
        ]
        assert fingerprints[0] == fingerprints[1]

    def test_traffic_equivalence(self):
        worlds = [
            build_traffic_world(50, mode=mode)
            for mode in (ExecutionMode.COMPILED, ExecutionMode.INTERPRETED)
        ]
        for _ in range(4):
            for world in worlds:
                world.tick()
        assert state_fingerprint(worlds[0], "Vehicle", ["position", "velocity"]) == state_fingerprint(
            worlds[1], "Vehicle", ["position", "velocity"]
        )

    def test_marketplace_equivalence(self):
        worlds = [
            build_marketplace_world(12, buyers_per_item=3, seller_stock=2, mode=mode)
            for mode in (ExecutionMode.COMPILED, ExecutionMode.INTERPRETED)
        ]
        for _ in range(2):
            for world in worlds:
                world.tick()
        assert state_fingerprint(worlds[0], "Trader", ["gold", "stock"]) == state_fingerprint(
            worlds[1], "Trader", ["gold", "stock"]
        )

    @settings(max_examples=8, deadline=None)
    @given(
        n_units=st.integers(min_value=2, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equivalence_property_over_random_worlds(self, n_units, seed):
        source = """
        class Unit {
          state:
            number player = 0;
            number x = 0;
            number y = 0;
            number health = 100;
            number range = 6;
          effects:
            number damage : sum;
        }
        script brawl(Unit self) {
          accum number hits with sum over Unit u from Unit {
            if (u.x >= x - range && u.x <= x + range &&
                u.y >= y - range && u.y <= y + range && u.player != player) {
              hits <- 1;
            }
          } in {
            if (hits > 0) { damage <- hits; }
          }
        }
        """
        rng = random.Random(seed)
        rows = [
            {"player": i % 2, "x": rng.uniform(0, 25), "y": rng.uniform(0, 25)}
            for i in range(n_units)
        ]

        def run(mode):
            world = GameWorld(source, mode=mode)
            world.add_update_rule("Unit", "health", lambda s, e: s["health"] - e.get("damage", 0))
            world.spawn_many("Unit", rows)
            world.tick()
            return state_fingerprint(world, "Unit", ["health"])

        assert run(ExecutionMode.COMPILED) == run(ExecutionMode.INTERPRETED)


class TestWorkloads:
    def test_rts_world_damage_flows(self):
        world = build_rts_world(60, seed=1)
        before = sum(u["health"] for u in world.objects("Unit"))
        world.run(2)
        after = sum(u["health"] for u in world.objects("Unit"))
        assert after < before

    def test_traffic_vehicles_keep_moving_and_wrap(self):
        world = build_traffic_world(40, road_length=200.0)
        world.run(5)
        positions = [v["position"] for v in world.objects("Vehicle")]
        assert all(0 <= p <= 200.0 for p in positions)
        assert any(v["velocity"] > 0 for v in world.objects("Vehicle"))

    def test_traffic_braking_behaviour(self):
        # A vehicle right behind another one must brake to velocity 0.
        world = build_traffic_world(2, n_lanes=1, road_length=100.0)
        world.set_state("Vehicle", 0, position=10.0, velocity=2.0)
        world.set_state("Vehicle", 1, position=12.0, velocity=0.5)
        world.tick()
        assert world.get_object("Vehicle", 0)["velocity"] == 0

    def test_marketplace_buyers_stop_when_broke(self):
        world = build_marketplace_world(4, buyers_per_item=1, seller_stock=100, buyer_gold=25.0, price=10.0)
        world.run(5)
        buyers = [t for t in world.objects("Trader") if t["is_seller"] == 0]
        # 25 gold at price 10 allows exactly 2 purchases per buyer.
        assert all(b["stock"] == 2 for b in buyers)
        assert all(b["gold"] >= 0 for b in buyers)
