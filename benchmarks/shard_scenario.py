"""Shared rts-derived scenario for the sharded-execution benchmark and tests.

Everything here is module-level and picklable so the same factory builds
identical worlds on the coordinator side (the single-process oracle) and
inside every forked/spawned shard worker.

The scenario scales the rts workload's map up (units drift toward the
script's hard-coded (50, 50) rally point, so a larger world keeps that an
interior point while giving the shard strips room) and keeps the
workload **equivalence-safe**: every effect combinator in play is either
an integer sum (``damage``, ``enemies_seen``) or a single-assignment
average (``vx``/``vy`` — one drift assignment per actor), so results are
independent of evaluation order and of which shard computed them.
"""

from __future__ import annotations

import random

from repro.runtime.world import GameWorld
from repro.shard.spec import ShardSpec
from repro.workloads.rts import build_rts_world, unit_rows

#: Interaction reach of the rts scripts: `range` caps at 10, so a band
#: probe spans at most 20 and a halo of 12 per side covers it with slack.
MAX_INTERACTION_RANGE = 10.0
HALO_WIDTH = 12.0


def scenario_spec(world_size: float = 300.0, *, adaptive_halo: bool = False) -> ShardSpec:
    return ShardSpec(
        axis_column="x",
        world_min=0.0,
        world_max=world_size,
        halo_width=HALO_WIDTH,
        adaptive_halo=adaptive_halo,
        partitioned_classes=("Unit",),
    )


def empty_world_factory(world_size: float = 300.0) -> GameWorld:
    """A ready-to-tick rts world with no units spawned (workers load rows)."""
    return build_rts_world(0, world_size=world_size)


def bench_world_factory() -> GameWorld:
    """The benchmark configuration: 300-wide map, all engine paths on."""
    return empty_world_factory(300.0)


def scenario_rows(n_units: int, world_size: float = 300.0, seed: int = 17) -> list[dict]:
    """Unit rows for the scenario (no ids; the loader assigns them)."""
    return list(unit_rows(n_units, world_size=world_size, seed=seed))


def subscriber_centers(
    n_subscribers: int, world_size: float = 300.0, seed: int = 43
) -> list[tuple[float, float]]:
    """Fixed AOI centers for the subscription fan-out load."""
    rng = random.Random(seed)
    return [
        (rng.uniform(0.0, world_size), rng.uniform(0.0, world_size))
        for _ in range(n_subscribers)
    ]


def build_single_world(n_units: int, world_size: float = 300.0, seed: int = 17) -> GameWorld:
    """The single-process oracle: same factory, same rows, spawned in order."""
    world = empty_world_factory(world_size)
    world.spawn_many("Unit", scenario_rows(n_units, world_size, seed))
    return world


AOI_RADIUS = 8.0


def run_shard_benchmark(
    n_units: int = 10_000,
    n_subscribers: int = 1_000,
    n_shards: int = 4,
    warmup: int = 3,
    ticks: int = 3,
    world_size: float = 300.0,
    seed: int = 17,
) -> dict:
    """Single-process vs sharded tick cost on the same scenario.

    The gated ``shard_speedup`` is **critical-path CPU**: median
    single-process CPU seconds per tick divided by the sharded fleet's
    median ``max(per-worker CPU) + coordinator routing CPU``.  CPU seconds
    (``time.process_time``) are scheduling-invariant, so the number a
    multi-core deployment's wall clock converges to is measured correctly
    even on a single-core CI runner where the worker processes time-slice.
    Wall clock for both sides is reported as informational.
    """
    import functools
    import statistics
    import time

    from repro.shard import ShardedWorld

    spec = scenario_spec(world_size)
    rows = scenario_rows(n_units, world_size, seed)
    centers = subscriber_centers(n_subscribers, world_size)

    single = empty_world_factory(world_size)
    single.spawn_many("Unit", rows)
    sessions = []
    for i, center in enumerate(centers):
        session = single.subscriptions.connect(f"sub-{i}")
        single.subscriptions.subscribe_aoi(
            session, "Unit", radius=AOI_RADIUS, dims=("x", "y"), center=center
        )
        sessions.append(session)
    for _ in range(warmup):
        single.tick()
        for session in sessions:
            session.take()
    single_cpu, single_wall = [], []
    for _ in range(ticks):
        cpu0, wall0 = time.process_time(), time.perf_counter()
        single.tick()
        for session in sessions:
            session.take()
        single_cpu.append(time.process_time() - cpu0)
        single_wall.append(time.perf_counter() - wall0)

    factory = functools.partial(empty_world_factory, world_size)
    with ShardedWorld(factory, spec, n_shards=n_shards) as sharded:
        sharded.load({"Unit": rows})
        for i, center in enumerate(centers):
            sharded.subscribe_aoi(f"sub-{i}", "Unit", radius=AOI_RADIUS, center=center)
        for _ in range(warmup):
            sharded.tick()
        measured = [sharded.tick() for _ in range(ticks)]

    single_cpu_median = statistics.median(single_cpu)
    critical_path = statistics.median(r.critical_path_seconds for r in measured)
    return {
        "n_units": n_units,
        "n_subscribers": n_subscribers,
        "n_shards": n_shards,
        "ticks": ticks,
        "single_cpu_seconds_per_tick": round(single_cpu_median, 6),
        "single_wall_seconds_per_tick": round(statistics.median(single_wall), 6),
        "critical_path_seconds_per_tick": round(critical_path, 6),
        "sharded_wall_seconds_per_tick": round(
            statistics.median(r.wall_seconds for r in measured), 6
        ),
        "max_worker_cpu_seconds_per_tick": round(
            statistics.median(max(r.worker_cpu_seconds) for r in measured), 6
        ),
        "coordinator_cpu_seconds_per_tick": round(
            statistics.median(r.coordinator_cpu_seconds for r in measured), 6
        ),
        "exchange_bytes_per_tick": int(
            statistics.median(r.exchange_bytes for r in measured)
        ),
        "exchange_rows_per_tick": int(
            statistics.median(r.exchange_rows for r in measured)
        ),
        "halo_rows_per_tick": int(statistics.median(r.halo_rows for r in measured)),
        "handoff_rows_per_tick": int(
            statistics.median(r.handoff_rows for r in measured)
        ),
        "subscription_messages_per_tick": int(
            statistics.median(r.subscription_messages for r in measured)
        ),
        "shard_speedup": round(single_cpu_median / critical_path, 3),
        "wall_speedup": round(
            statistics.median(single_wall)
            / statistics.median(r.wall_seconds for r in measured),
            3,
        ),
    }
