"""Multi-tick and reactive scripting example (Section 3.2), with a scout
moved by the pathfinding update component (Section 2.2).

Guards patrol using a multi-tick script (`waitNextTick` between waypoints).
A reactive handler watches for damage; when a guard is hurt it interrupts
the patrol (resets the implicit program counter) and queues a retreat
effect for the next tick — the paper's interruptible-intention model.

A scout's position is owned by a `PathfindingComponent`, which walks it
along A* paths around a wall.  Its `GridReachability` oracle (one cached
Fixpoint plan per start cell) turns down the order into a sealed room
without running A*.

Run with:  python examples/reactive_patrol.py
"""

from repro import ExecutionMode, GameWorld
from repro.runtime import Handler
from repro.runtime.pathfinding import (
    GridMap,
    GridReachability,
    PathfindingComponent,
    PathfindingConfig,
)
from repro.sgl.ir import EffectAssignment

SOURCE = """
class Guard {
  state:
    number x = 0;
    number hp = 10;
  effects:
    number vx : sum;
    number dmg : sum;
}

class Scout {
  state:
    number x = 0;
    number y = 0;
    number goal_x = 0;
    number goal_y = 0;
}

// A three-step patrol: advance, advance, hold position.
script patrol(Guard self) {
  vx <- 2;
  waitNextTick;
  vx <- 2;
  waitNextTick;
  vx <- 0;
}
"""


def scout_grid() -> GridMap:
    """An 8x4 map: a wall with a gap at the top, and a sealed room."""
    grid = GridMap(8, 4)
    grid.add_obstacle_rect(3, 0, 3, 2)
    grid.add_obstacle_rect(5, 0, 5, 1)
    grid.add_obstacle_rect(6, 1, 7, 1)
    return grid


def main() -> None:
    world = GameWorld(SOURCE, mode=ExecutionMode.COMPILED)
    world.add_update_rule("Guard", "x", lambda s, e: s["x"] + e.get("vx", 0))
    world.add_update_rule("Guard", "hp", lambda s, e: s["hp"] - e.get("dmg", 0))
    world.add_handler(
        Handler(
            name="retreat-when-hurt",
            class_name="Guard",
            condition=lambda row: row["hp"] < 10,
            action=lambda row: [EffectAssignment("Guard", row["id"], "vx", -4)],
            interrupts=("patrol",),
        )
    )
    grid = scout_grid()
    pathfinding = PathfindingComponent(
        grid,
        PathfindingConfig(class_name="Scout", goal_x_effect=None, goal_y_effect=None, speed=3),
        reachability=GridReachability(grid),
    )
    world.add_component(pathfinding)
    guard = world.spawn("Guard")
    scout = world.spawn("Scout", goal_x=4, goal_y=0)

    for tick in range(6):
        if tick == 3:
            # An off-screen attacker wounds the guard between ticks.
            world.set_state("Guard", guard, hp=6)
            print("  !! guard takes a hit")
        if tick == 4:
            world.set_state("Scout", scout, goal_x=7, goal_y=0)
            print("  !! scout ordered into the sealed room")
        world.tick()
        row = world.get_object("Guard", guard)
        spot = world.get_object("Scout", scout)
        print(
            f"tick {tick}: x={row['x']:5.1f}  hp={row['hp']}  "
            f"patrol step={int(row['__pc_patrol'])}  handlers fired={world.reports[-1].handlers_fired}  "
            f"scout at ({spot['x']:.0f}, {spot['y']:.0f})"
        )
    print(
        f"scout: A* ran {pathfinding.plans_computed}x, "
        f"unreachable goal turned down {pathfinding.unreachable_pruned}x without A*"
    )


if __name__ == "__main__":
    main()
