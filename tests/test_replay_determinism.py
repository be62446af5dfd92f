"""Replay determinism: the log reconstructs every tick bit-for-bit.

A commit record is the exact netted difference between two tick
boundaries, so replaying checkpoint + deltas must land on *precisely* the
state the live world held — at every boundary, not just the last one, and
regardless of which engine paths (MQO sharing, incremental maintenance,
batch execution) produced the states.  Seeded out-of-tick churn (spawns,
destroys, set_state between ticks) rides along in the next commit, so the
log captures the whole history, not just the tick loop's writes.
"""

from __future__ import annotations

import random
import tempfile

import pytest

from repro.engine.config import EngineConfig
from repro.engine.errors import ExecutionError
from repro.persistence.replay import ReplayError, replay_tables
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import build_rts_world
from repro.workloads.traffic import build_traffic_world

TICKS = 10
CHECKPOINT_INTERVAL = 3


def rts_churn(world, rng):
    ids = [row["id"] for row in world.objects("Unit")]
    if rng.random() < 0.5:
        world.spawn(
            "Unit",
            player=rng.randrange(2),
            x=rng.uniform(0, 100),
            y=rng.uniform(0, 100),
            health=100,
            range=rng.choice([6, 8, 10]),
            attack=rng.choice([1, 2]),
            speed=rng.uniform(0.5, 1.5),
        )
    if ids and rng.random() < 0.3:
        victim = rng.choice(ids)
        world.destroy("Unit", victim)
        ids.remove(victim)  # or set_state below may pick the destroyed row
    if ids and rng.random() < 0.5:
        world.set_state("Unit", rng.choice(ids), health=rng.randrange(1, 100))


def traffic_churn(world, rng):
    ids = [row["id"] for row in world.objects("Vehicle")]
    if rng.random() < 0.4:
        world.spawn(
            "Vehicle",
            lane=rng.randrange(4),
            position=rng.uniform(0, 1000),
            velocity=rng.uniform(0.5, 1.5),
            max_velocity=rng.uniform(1.5, 2.5),
            lookahead=12.0,
        )
    if ids and rng.random() < 0.3:
        world.destroy("Vehicle", rng.choice(ids))


def no_churn(world, rng):
    pass


WORKLOADS = {
    "rts": (lambda **kw: build_rts_world(15, seed=17, with_physics=False, **kw), rts_churn),
    "traffic": (lambda **kw: build_traffic_world(15, seed=23, **kw), traffic_churn),
    "marketplace": (lambda **kw: build_marketplace_world(10, seed=11, **kw), no_churn),
}


def run_with_wal(directory, name: str, churn_seed: int | None = None, **build_kwargs):
    """Run one world with a WAL in a new log under *directory*; returns
    (log path, per-tick states, records)."""
    build, churn = WORKLOADS[name]
    world = build(**build_kwargs)
    path = tempfile.mkdtemp(prefix=f"replay-{name}-", dir=directory)
    wal = world.attach_wal(path, checkpoint_interval=CHECKPOINT_INTERVAL)
    rng = random.Random(churn_seed) if churn_seed is not None else None

    def state():
        return {n: t.snapshot() for n, t in wal._tables()}

    states = {-1: state()}
    for _ in range(TICKS):
        if rng is not None:
            churn(world, rng)
        world.tick()
        states[world.tick_count - 1] = state()
    records = [r for r in wal.log.records() if r.get("k") in ("c", "cp")]
    world.detach_wal()
    return path, states, records


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_matches_live_at_every_tick(tmp_path, workload):
    """Time travel: any boundary, not just the newest, reconstructs exactly."""
    path, states, _ = run_with_wal(tmp_path, workload, churn_seed=42)
    for tick in sorted(states):
        replayed = replay_tables(path, tick=tick)
        assert replayed.tick == tick
        assert replayed.tables == states[tick], f"divergence at tick {tick}"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_rerun_is_bit_stable(tmp_path, workload):
    """The same seeded run twice: identical states *and* identical log
    records (modulo the per-log epoch token, which is random by design)."""
    _, states_a, records_a = run_with_wal(tmp_path, workload, churn_seed=7)
    _, states_b, records_b = run_with_wal(tmp_path, workload, churn_seed=7)
    assert states_a == states_b
    assert records_a == records_b  # commit/checkpoint payloads, in order


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_churn_seeds_diverge(tmp_path, workload):
    """Sanity check on the harness itself: the churn must actually churn
    (identical histories would make the determinism tests vacuous)."""
    if WORKLOADS[workload][1] is no_churn:
        pytest.skip("workload runs without out-of-tick churn")
    _, states_a, _ = run_with_wal(tmp_path, workload, churn_seed=1)
    _, states_b, _ = run_with_wal(tmp_path, workload, churn_seed=2)
    assert states_a != states_b


@pytest.mark.parametrize(
    "toggles",
    [
        {"use_incremental": False},
        {"use_batch": False},
        EngineConfig.reference().as_dict(),
    ],
    ids=lambda t: "+".join(sorted(k for k, v in t.items() if not v)),
)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_matches_live_under_engine_path_toggles(tmp_path, workload, toggles):
    """The compiled target (kernels, shared subplans, index probes) and
    incremental maintenance are performance paths — none of them may
    change what gets committed to the log or how it replays."""
    config = EngineConfig(**toggles)
    path, states, _ = run_with_wal(tmp_path, workload, churn_seed=5, config=config)
    for tick in sorted(states):
        replayed = replay_tables(path, tick=tick)
        assert replayed.tables == states[tick], (
            f"{workload} with {toggles}: divergence at tick {tick}"
        )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_recovered_world_continues_identically(tmp_path, workload):
    """Recover at an interior tick, then tick forward: the continuation
    matches the original run tick for tick (the state really is complete —
    counters included, or ids would drift)."""
    build, churn = WORKLOADS[workload]
    path, states, _ = run_with_wal(tmp_path, workload, churn_seed=9)
    mid = TICKS // 2
    world = build()
    wal = world.attach_wal(path)  # recovers to the last durable tick
    try:
        assert {n: t.snapshot() for n, t in wal._tables()} == states[TICKS - 1]
        # Now recover a *fresh* world to the midpoint and replay the same
        # churn from there; spawned ids must not collide with live rows.
        from repro.persistence.replay import recover_world

        world2 = build()
        recover_world(world2, path, tick=mid)
        assert {
            n: world2.catalog.table(n).snapshot() for n in states[mid]
        } == states[mid]
        rng = random.Random(1234)
        churn(world2, rng)  # exercises next_ids/next_rowid restoration
        world2.tick()
    finally:
        world.detach_wal()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_replay_follows_a_rewind(tmp_path, workload):
    """After ``rewind_to`` the log's timeline is the rewound one: every
    boundary of the new run replays exactly, a crash recovers onto it, and
    the abandoned ticks no longer replay."""
    build, churn = WORKLOADS[workload]
    world = build()
    path = str(tmp_path)
    wal = world.attach_wal(path, checkpoint_interval=CHECKPOINT_INTERVAL)
    rng = random.Random(3)

    def state():
        return {n: t.snapshot() for n, t in wal._tables()}

    for _ in range(TICKS):
        churn(world, rng)
        world.tick()
    world.rewind_to(TICKS // 2)
    states = {TICKS // 2 - 1: state()}
    for _ in range(2):
        churn(world, rng)  # the rng has moved on: a different timeline
        world.tick()
        states[world.tick_count - 1] = state()
    for tick, tables in states.items():
        assert replay_tables(path, tick=tick).tables == tables, tick
    with pytest.raises(ReplayError):
        replay_tables(path, tick=TICKS - 1)
    world.detach_wal()

    restarted = build()
    recovered = restarted.attach_wal(path)
    assert restarted.tick_count == world.tick_count
    assert {n: t.snapshot() for n, t in recovered._tables()} == states[world.tick_count - 1]
    restarted.detach_wal()


def test_rewind_refuses_what_the_log_cannot_serve(tmp_path):
    world = build_rts_world(15, seed=17, with_physics=False)
    wal = world.attach_wal(
        str(tmp_path), checkpoint_interval=2, segment_max_bytes=1024, auto_trim=True
    )
    world.run(8)
    assert wal.log.first_commit_tick > 1  # the head was trimmed away
    before = world.snapshot()
    with pytest.raises(ExecutionError):
        world.rewind_to(9)  # forward
    with pytest.raises(ReplayError):
        world.rewind_to(1)  # boundary 0 is gone
    assert world.snapshot() == before
    assert len(world.reports) == 8
    world.detach_wal()
