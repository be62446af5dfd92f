"""The five workloads: generated inputs, world builders and per-tick drivers.

Every workload makes its rows from the ``--seed`` it is given; the program
under test only ever sees those rows.  Positions are drawn on a jittered
grid and categorical attributes from shuffled balanced decks, so two seeds
give different worlds with the same density and attribute mix — with plain
uniform draws the rts tick cost moved 10 % between seeds (clumps change the
join output size), which would have drowned any bound below that.

Every world runs ``EngineConfig.fastest()`` passed explicitly and
``ExecutionMode.COMPILED``; ``REPRO_ENGINE_PRESET`` therefore has no say.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Any, Sequence

from repro.engine.config import EngineConfig
from repro.runtime.physics import PhysicsComponent, PhysicsConfig
from repro.runtime.world import ExecutionMode, GameWorld, TickReport
from repro.shard.spec import ShardSpec
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import build_rts_world

__all__ = ["CONFIG", "WORKLOADS", "Workload", "aoi_box_rows"]

CONFIG = EngineConfig.fastest()

#: Steps run in set-up before the timed window: plan caches, kernel
#: compilation and the index advisor (``index_create_after=3``) settle here.
WARMUP_STEPS = 8


def jittered_grid(rng: random.Random, n: int, size: float) -> list[tuple[float, float]]:
    """*n* points, one per cell of a covering grid, cells taken in random order."""
    side = math.ceil(math.sqrt(n))
    cell = size / side
    cells = [(i, j) for i in range(side) for j in range(side)]
    rng.shuffle(cells)
    return [((i + rng.random()) * cell, (j + rng.random()) * cell) for i, j in cells[:n]]


def balanced(rng: random.Random, n: int, values: Sequence[Any]) -> list[Any]:
    """*n* draws holding every value equally often, in random order."""
    deck = [values[i % len(values)] for i in range(n)]
    rng.shuffle(deck)
    return deck


def spread_picks(rng: random.Random, points: Sequence[tuple[float, float]], count: int) -> list[int]:
    """Indexes of *count* points spread evenly over the map (raster order, random phase)."""
    order = sorted(range(len(points)), key=lambda k: (round(points[k][0] / 16.0), points[k][1]))
    count = min(count, len(order))
    stride = len(order) / count
    phase = rng.random() * stride
    return [order[int(phase + k * stride)] for k in range(count)]


def rts_rows(rng: random.Random, n: int, size: float) -> list[dict[str, Any]]:
    points = jittered_grid(rng, n, size)
    players = balanced(rng, n, (0, 1))
    ranges = balanced(rng, n, (6, 8, 10))
    attacks = balanced(rng, n, (1, 2))
    return [
        {
            "player": players[k],
            "x": x,
            "y": y,
            "health": 100,
            "range": ranges[k],
            "attack": attacks[k],
            "speed": rng.uniform(0.5, 1.5),
        }
        for k, (x, y) in enumerate(points)
    ]


def aoi_box_rows(
    rows: Sequence[dict[str, Any]], center: Sequence[float], radius: float
) -> list[dict[str, Any]]:
    """The rows an AOI subscription must hold: a closed box query over *rows*."""
    cx, cy = center
    return [
        row
        for row in rows
        if cx - radius <= row["x"] <= cx + radius and cy - radius <= row["y"] <= cy + radius
    ]


class Workload:
    """One benchmark workload.  Subclasses fill in the class attributes and
    :meth:`build`; served workloads also set ``observers``."""

    name = ""
    #: Class the subscriptions watch.
    watched = "Unit"
    #: Attach a WAL (and measure recovery from it).
    wal = True
    #: Call ``world.attach_metrics()``.
    metrics = False
    #: AOI half-extent of every subscription.
    radius = 12.0
    #: Connections x subscriptions per connection (0 = nobody is served).
    connections = 2
    subscriptions = 0
    #: Worker processes of a ``ShardedWorld`` (0 = one world in this process).
    shards = 0

    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.rng = random.Random(seed)
        #: Ids of the rows the AOI subscriptions follow.
        self.observers: list[int] = []
        #: Redrawn by :meth:`build`, so every set-up drives the same churn.
        self.drive_rng = random.Random(seed)

    def pick_observers(self, points: Sequence[tuple[float, float]]) -> None:
        per_connection = 3 if self.smoke else self.subscriptions
        self.observers = spread_picks(self.rng, points, self.connections * per_connection)

    def build(self) -> GameWorld:
        """A fresh world holding the generated rows (also the recovery target)."""
        raise NotImplementedError

    def requests(self) -> list[list[dict[str, Any]]]:
        """Per connection, the subscribe requests its client sends."""
        per_connection = [[] for _ in range(self.connections)]
        for k, observer in enumerate(self.observers):
            per_connection[k % self.connections].append(
                {
                    "op": "subscribe_aoi",
                    "table": self.watched,
                    "radius": self.radius,
                    "dims": ["x", "y"],
                    "observer_id": observer,
                }
            )
        return per_connection

    def drive(self, world: GameWorld) -> None:
        """Out-of-tick input applied before every step (player commands)."""

    def check(self, world: GameWorld, reports: Sequence[TickReport]) -> list[str]:
        """Workload-specific invariants; returns one line per violation."""
        return []


class RtsServed(Workload):
    """ROADMAP's canonical scenario: the whole pipeline at once."""

    name = "rts_served"
    metrics = True
    subscriptions = 32
    #: smoke -> (units, map width); both keep 0.015 units per unit area.
    sizes = {False: (500, 183.0), True: (40, 52.0)}

    def __init__(self, seed: int, *, smoke: bool = False):
        super().__init__(seed, smoke=smoke)
        self.n, self.size = self.sizes[smoke]
        self.rows = rts_rows(self.rng, self.n, self.size)
        self.pick_observers([(row["x"], row["y"]) for row in self.rows])

    def build(self) -> GameWorld:
        world = build_rts_world(
            0, mode=ExecutionMode.COMPILED, world_size=self.size, config=CONFIG
        )
        world.spawn_many("Unit", self.rows)
        return world


class RtsLowChurn(RtsServed):
    """Standing queries served by incremental views; 1 % of rows move per tick."""

    name = "rts_lowchurn"
    metrics = False
    sizes = {False: (1000, 259.0), True: (60, 64.0)}

    def build(self) -> GameWorld:
        self.drive_rng = random.Random(self.seed)
        world = build_rts_world(
            0,
            mode=ExecutionMode.COMPILED,
            world_size=self.size,
            with_physics=False,
            scripts=["count_neighbours"],
            config=CONFIG,
        )
        world.spawn_many("Unit", self.rows)
        return world

    def drive(self, world: GameWorld) -> None:
        rng = self.drive_rng
        for object_id in rng.sample(range(self.n), max(1, self.n // 100)):
            world.set_state(
                "Unit", object_id, x=rng.uniform(0.0, self.size), y=rng.uniform(0.0, self.size)
            )


MOVER_SOURCE = """
class Mover {
  state:
    number x = 0;
    number y = 0;
    number dx = 0;
    number dy = 0;
  effects:
    number vx : avg;
    number vy : avg;
}

// Join-free: the engine does almost nothing, every row moves every tick.
script drift(Mover self) {
  vx <- dx;
  vy <- dy;
}
"""


class MoverFanout(Workload):
    """Write-heavy twin of ``rts_served``: flush, encode, WAL and updates do the work."""

    name = "mover_fanout"
    watched = "Mover"
    radius = 20.0
    subscriptions = 64

    def __init__(self, seed: int, *, smoke: bool = False):
        super().__init__(seed, smoke=smoke)
        self.n = 60 if smoke else 800
        self.size = 80.0 if smoke else 292.0
        points = jittered_grid(self.rng, self.n, self.size)
        # Slow enough that a mover crosses a small part of the map in one
        # run: physics clamps at the border and a stuck mover stops changing.
        speeds = balanced(self.rng, 2 * self.n, (0.02, 0.04, 0.06, 0.08, 0.1))
        signs = balanced(self.rng, 2 * self.n, (-1.0, 1.0))
        self.rows = [
            {
                "x": x,
                "y": y,
                "dx": speeds[2 * k] * signs[2 * k],
                "dy": speeds[2 * k + 1] * signs[2 * k + 1],
            }
            for k, (x, y) in enumerate(points)
        ]
        self.pick_observers(points)

    def build(self) -> GameWorld:
        world = GameWorld(MOVER_SOURCE, mode=ExecutionMode.COMPILED, config=CONFIG)
        world.add_component(
            PhysicsComponent(
                PhysicsConfig(class_name="Mover", world_max_x=self.size, world_max_y=self.size)
            )
        )
        world.spawn_many("Mover", self.rows)
        return world


class MarketTxn(Workload):
    """The paper's atomic actions: the transaction engine owns the update step.

    ``build_marketplace_world`` as shipped sells out in tick 0 and aborts
    every transaction from tick 1 on (see the README for the numbers), so
    the driver restocks every seller and refills every buyer's gold before
    each tick through public ``set_state``.  Four buyers contend for each
    seller and the restock levels average two items, which holds the share
    of committed transactions at one half.
    """

    name = "market_txn"
    watched = "Trader"
    subscriptions = 0
    buyers_per_seller = 4
    buyer_gold = 50.0

    def __init__(self, seed: int, *, smoke: bool = False):
        super().__init__(seed, smoke=smoke)
        self.n = 40 if smoke else 400
        self.n_sellers = self.n // self.buyers_per_seller
        #: Seller id -> stock it is reset to before every tick.
        self.restock = dict(enumerate(balanced(self.rng, self.n_sellers, (1, 2, 3))))

    def build(self) -> GameWorld:
        world = build_marketplace_world(
            self.n,
            buyers_per_item=self.buyers_per_seller,
            buyer_gold=self.buyer_gold,
            mode=ExecutionMode.COMPILED,
            seed=self.seed,
            config=CONFIG,
        )
        sellers = sorted(row["id"] for row in world.objects("Trader") if row["is_seller"])
        assert sellers == sorted(self.restock), "builder no longer spawns sellers first"
        return world

    def drive(self, world: GameWorld) -> None:
        for seller, stock in self.restock.items():
            world.set_state("Trader", seller, stock=stock)
        for buyer in range(self.n_sellers, self.n_sellers + self.n):
            world.set_state("Trader", buyer, gold=self.buyer_gold)

    def check(self, world: GameWorld, reports: Sequence[TickReport]) -> list[str]:
        problems = []
        for report in reports:
            settled = report.transactions_committed + report.transactions_aborted
            if settled != report.transactions_submitted:
                problems.append(
                    f"tick {report.tick}: {report.transactions_submitted} submitted "
                    f"but {settled} settled"
                )
        oversold = [row["id"] for row in world.objects("Trader") if row["stock"] < 0]
        if oversold:
            problems.append(f"sellers with negative stock: {oversold[:5]}")
        submitted = sum(r.transactions_submitted for r in reports)
        committed = sum(r.transactions_committed for r in reports)
        share = committed / submitted if submitted else 0.0
        if not 0.3 <= share <= 0.7:
            problems.append(
                f"commit share {share:.3f} outside 0.3-0.7: the run measured "
                "the abort (or the uncontended) path only"
            )
        return problems


class RtsSharded2(Workload):
    """The rts scenario on two worker processes: exchange, halo and barrier."""

    name = "rts_sharded2"
    wal = False
    shards = 2
    subscriptions = 64
    halo_width = 12.0

    def __init__(self, seed: int, *, smoke: bool = False):
        super().__init__(seed, smoke=smoke)
        self.n = 80 if smoke else 1200
        self.size = 100.0 if smoke else 268.0
        self.rows = rts_rows(self.rng, self.n, self.size)
        count = 6 if smoke else self.subscriptions
        #: Fixed AOI centres (``ShardedWorld`` has no observer-following AOI).
        self.centers = jittered_grid(self.rng, count, self.size)

    @property
    def factory(self):
        """Picklable builder of one worker's empty world."""
        return functools.partial(
            build_rts_world, 0, mode=ExecutionMode.COMPILED, world_size=self.size, config=CONFIG
        )

    @property
    def spec(self) -> ShardSpec:
        return ShardSpec(
            axis_column="x",
            world_min=0.0,
            world_max=self.size,
            halo_width=self.halo_width,
            partitioned_classes=("Unit",),
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (RtsServed, RtsLowChurn, MoverFanout, MarketTxn, RtsSharded2)
}
