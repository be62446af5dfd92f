"""Grid pathfinding (A*) packaged as an update component (Section 2.2).

Pathfinding is the paper's second example of "AI planning" functionality
that lives outside SGL but owns state attributes.  The component owns the
position attributes of its class: each tick it reads the object's pathfind
goal (state attributes ``goal_x``/``goal_y`` by default, or ``move_to_x``/
``move_to_y`` effects when scripts steer dynamically), plans a path around
static obstacles on a uniform grid with A*, and advances the object by at
most ``speed`` cells along it.

Two kinds of grid queries are expressed differently:

* **Point-to-point paths** stay on :func:`astar` — a goal-directed search
  with a heuristic is the right tool and nothing here beats it.
* **"Which cells can this unit reach at all?"** is a *transitive
  closure*, a declarative :class:`~repro.engine.algebra.Fixpoint` plan
  over an edges table derived from the grid (:func:`grid_edges_table`).
  Running it through the engine buys semi-naive iteration and
  version-vector caching across repeated calls.
  :class:`GridReachability` packages the catalog/executor plumbing, and
  the component uses it to reject unreachable goals before A* runs.

The module also exposes :func:`astar` directly so tests and examples can
exercise the planner in isolation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.engine.algebra import Fixpoint, Join, LogicalPlan, Project, RecursiveRef, TableScan, Values
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import BinaryOp, ColumnRef
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.runtime.effects import CombinedEffects
from repro.runtime.updates import StateUpdate, UpdateComponent, WorldStateView

__all__ = [
    "GridMap",
    "astar",
    "grid_edges_table",
    "reachability_plan",
    "GridReachability",
    "PathfindingConfig",
    "PathfindingComponent",
]


@dataclass
class GridMap:
    """A uniform grid world: dimensions plus a set of blocked cells."""

    width: int
    height: int
    obstacles: set[tuple[int, int]] = field(default_factory=set)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        x, y = cell
        return 0 <= x < self.width and 0 <= y < self.height

    def passable(self, cell: tuple[int, int]) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    def neighbours(self, cell: tuple[int, int]) -> Iterable[tuple[int, int]]:
        x, y = cell
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            candidate = (x + dx, y + dy)
            if self.passable(candidate):
                yield candidate

    def add_obstacle_rect(self, x0: int, y0: int, x1: int, y1: int) -> None:
        """Block every cell in the inclusive rectangle [x0..x1] × [y0..y1]."""
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                self.obstacles.add((x, y))

    # -- relational view ----------------------------------------------------------------

    def cell_id(self, cell: tuple[int, int]) -> int:
        """Dense integer id of a cell (row-major), used in the edges table."""
        x, y = cell
        return y * self.width + x

    def cell_at(self, cell_id: int) -> tuple[int, int]:
        """Inverse of :meth:`cell_id`."""
        return (cell_id % self.width, cell_id // self.width)

    def edge_rows(self) -> list[dict[str, int]]:
        """The grid's passable 4-adjacency as directed ``{src, dst}`` rows."""
        return [
            {"src": self.cell_id((x, y)), "dst": self.cell_id(neighbour)}
            for y in range(self.height)
            for x in range(self.width)
            if self.passable((x, y))
            for neighbour in self.neighbours((x, y))
        ]


def astar(
    grid: GridMap, start: tuple[int, int], goal: tuple[int, int]
) -> list[tuple[int, int]] | None:
    """A* over 4-connected grid cells with Manhattan-distance heuristic.

    Returns the list of cells from *start* to *goal* inclusive, or ``None``
    when the goal is unreachable.  If the goal cell itself is blocked the
    search targets the nearest passable neighbour of the goal.
    """
    if not grid.passable(start):
        return None
    if not grid.passable(goal):
        candidates = [c for c in grid.neighbours(goal)]
        if not candidates:
            return None
        goal = min(candidates, key=lambda c: abs(c[0] - start[0]) + abs(c[1] - start[1]))

    def heuristic(cell: tuple[int, int]) -> int:
        return abs(cell[0] - goal[0]) + abs(cell[1] - goal[1])

    frontier: list[tuple[int, int, tuple[int, int]]] = [(heuristic(start), 0, start)]
    came_from: dict[tuple[int, int], tuple[int, int] | None] = {start: None}
    cost_so_far: dict[tuple[int, int], int] = {start: 0}
    counter = 0
    while frontier:
        _, _, current = heapq.heappop(frontier)
        if current == goal:
            break
        for neighbour in grid.neighbours(current):
            new_cost = cost_so_far[current] + 1
            if neighbour not in cost_so_far or new_cost < cost_so_far[neighbour]:
                cost_so_far[neighbour] = new_cost
                counter += 1
                heapq.heappush(frontier, (new_cost + heuristic(neighbour), counter, neighbour))
                came_from[neighbour] = current
    if goal not in came_from:
        return None
    path = [goal]
    while came_from[path[-1]] is not None:
        path.append(came_from[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path


def grid_edges_table(grid: GridMap, name: str = "grid_edges") -> Table:
    """Materialize the grid's passable adjacency as an engine table."""
    table = Table(name, Schema([Column("src"), Column("dst")]))
    table.insert_many(grid.edge_rows())
    return table


def reachability_plan(
    start_id: int, edges: str = "grid_edges", max_rounds: int | None = None
) -> LogicalPlan:
    """All cells reachable from *start_id*: the transitive closure of the
    edges table seeded with one row, as a semi-naive Fixpoint plan.

    One ``{node}`` row per reachable cell — plain set semantics, which
    terminates on cyclic grids and stays warm-restartable under
    insert-only edge churn.  ``max_rounds`` bounds the radius (``None`` =
    close fully).
    """
    schema = Schema([Column("node")])
    base = Values(schema, [{"node": start_id}])
    step = Project(
        Join(
            RecursiveRef(schema),
            TableScan(edges),
            BinaryOp("==", ColumnRef("node"), ColumnRef("src")),
            how="inner",
        ),
        {"node": ColumnRef("dst")},
    )
    return Fixpoint(base, step, max_rounds=max_rounds)


class GridReachability:
    """Reachable-set queries as cached engine plans over one edges table.

    Owns a private catalog + executor holding the grid's adjacency.  Plan
    objects are cached per query signature so repeated calls hit the
    executor's plan cache and the FixpointOp's version-vector result cache
    — a reachability query re-asked on an unchanged grid costs a cache
    probe, not a traversal (the win over re-running A*/BFS imperatively).
    """

    def __init__(self, grid: GridMap, config: EngineConfig | None = None):
        self.grid = grid
        self.catalog = Catalog()
        self.edges = grid_edges_table(grid)
        self.catalog.register_table(self.edges)
        self.executor = Executor(self.catalog, config or EngineConfig())
        #: One plan per start cell.
        self._plans: dict[int, LogicalPlan] = {}

    def reachable_set(self, start: tuple[int, int]) -> set[tuple[int, int]]:
        """Every cell reachable from *start* (including itself, if passable)."""
        if not self.grid.passable(start):
            return set()
        start_id = self.grid.cell_id(start)
        plan = self._plans.get(start_id)
        if plan is None:
            plan = self._plans[start_id] = reachability_plan(start_id)
        result = self.executor.execute(plan)
        return {self.grid.cell_at(row["node"]) for row in result.rows}


@dataclass(frozen=True)
class PathfindingConfig:
    """Configuration of the pathfinding update component."""

    class_name: str = "Unit"
    x_attribute: str = "x"
    y_attribute: str = "y"
    goal_x_attribute: str = "goal_x"
    goal_y_attribute: str = "goal_y"
    #: Optional effects scripts can set to retarget the goal this tick.
    goal_x_effect: str | None = "move_to_x"
    goal_y_effect: str | None = "move_to_y"
    #: Cells moved per tick.
    speed: int = 1
    #: World units per grid cell.
    cell_size: float = 1.0


class PathfindingComponent(UpdateComponent):
    """Owns position attributes and moves objects along A* paths."""

    name = "pathfinding"

    def __init__(
        self,
        grid: GridMap,
        config: PathfindingConfig | None = None,
        reachability: GridReachability | None = None,
    ):
        self.grid = grid
        self.config = config or PathfindingConfig()
        #: Optional closure oracle over the same grid.  When present,
        #: unreachable goals are rejected by one (cached) fixpoint query
        #: instead of letting A* flood the whole connected component every
        #: tick; reachable goals proceed to A* unchanged.
        self.reachability = reachability
        #: Cached paths per object id, invalidated when the goal changes.
        self._paths: dict[Any, tuple[tuple[int, int], list[tuple[int, int]]]] = {}
        #: Number of A* invocations (cache misses) — used by benchmarks.
        self.plans_computed = 0
        #: Unreachable goals rejected without running A*.
        self.unreachable_pruned = 0

    def owned_attributes(self) -> dict[str, set[str]]:
        cfg = self.config
        return {cfg.class_name: {cfg.x_attribute, cfg.y_attribute}}

    def compute_updates(
        self, state: WorldStateView, effects: CombinedEffects
    ) -> list[StateUpdate]:
        cfg = self.config
        updates: list[StateUpdate] = []
        for row in state.objects(cfg.class_name):
            object_id = row["id"]
            current = self._cell(row[cfg.x_attribute], row[cfg.y_attribute])
            goal = self._goal_for(row, effects)
            if goal is None or goal == current:
                continue
            path = self._path_for(object_id, current, goal)
            if not path or len(path) < 2:
                continue
            steps = min(cfg.speed, len(path) - 1)
            target = path[steps]
            self._paths[object_id] = (goal, path[steps:])
            updates.append(
                StateUpdate(cfg.class_name, object_id, cfg.x_attribute, target[0] * cfg.cell_size)
            )
            updates.append(
                StateUpdate(cfg.class_name, object_id, cfg.y_attribute, target[1] * cfg.cell_size)
            )
        return updates

    # -- helpers ------------------------------------------------------------------------------

    def _cell(self, x: Any, y: Any) -> tuple[int, int]:
        size = self.config.cell_size
        return (int(float(x) // size), int(float(y) // size))

    def _goal_for(
        self, row: Mapping[str, Any], effects: CombinedEffects
    ) -> tuple[int, int] | None:
        cfg = self.config
        values = effects.for_object(cfg.class_name, row["id"])
        gx = values.get(cfg.goal_x_effect) if cfg.goal_x_effect else None
        gy = values.get(cfg.goal_y_effect) if cfg.goal_y_effect else None
        if gx is None:
            gx = row.get(cfg.goal_x_attribute)
        if gy is None:
            gy = row.get(cfg.goal_y_attribute)
        if gx is None or gy is None:
            return None
        return self._cell(gx, gy)

    def _path_for(
        self, object_id: Any, current: tuple[int, int], goal: tuple[int, int]
    ) -> list[tuple[int, int]] | None:
        cached = self._paths.get(object_id)
        if cached is not None:
            cached_goal, cached_path = cached
            if cached_goal == goal and cached_path and cached_path[0] == current:
                return cached_path
        if (
            self.reachability is not None
            and self.grid.passable(goal)
            and goal not in self.reachability.reachable_set(current)
        ):
            self.unreachable_pruned += 1
            return None
        path = astar(self.grid, current, goal)
        self.plans_computed += 1
        if path is not None:
            self._paths[object_id] = (goal, path)
        return path
