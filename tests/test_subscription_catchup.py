"""Restarted-node catch-up: subscriptions resume from log offsets.

PR 5's subscription service streams deltas to connected clients; this
suite proves the PR 6 extension: after the serving node crashes and
recovers from its delta log, a returning client presents the last tick it
applied and receives one netted catch-up :class:`Delta` — not a full
snapshot — that brings its client-side :class:`ResultSet` to exactly the
state a freshly subscribed client would see.  When the log cannot serve
the offset (trimmed history, drifted tables) the client gets a
:class:`Snapshot` with reason ``"resync:offset-too-old"`` instead: stale,
never wrong.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.persistence.replay import iter_log_records, net_table_changes, recover_world, replay_tables
from repro.service.protocol import Delta, ResultSet, Snapshot
from repro.workloads.rts import build_rts_world

TICKS_BEFORE_CRASH = 6
TICKS_MISSED = 4


def build_world():
    return build_rts_world(20, seed=17, with_physics=False)


def rows_key(rows):
    return sorted(sorted(r.items()) for r in rows)


def fresh_snapshot_rows(manager, table="Unit", predicate=None):
    session = manager.connect("fresh")
    manager.subscribe_table(session, table, predicate)
    snapshot = session.take()[0]
    assert isinstance(snapshot, Snapshot)
    return list(snapshot.rows)


class _Client:
    """A client that survives the server restart: keeps its ResultSet."""

    def __init__(self, manager, table="Unit", predicate=None):
        self.table = table
        self.predicate = predicate
        self.session = manager.connect("client")
        self.sub_id = manager.subscribe_table(self.session, table, predicate)
        self.results = ResultSet()
        self.drain()

    def drain(self):
        for message in self.session.take():
            self.results.apply(message)

    def resume(self, manager):
        """Reconnect against a restarted manager; returns the messages."""
        self.session = manager.connect("client")
        new_id = manager.resume_table_subscription(
            self.session, self.table, self.predicate,
            last_seen_tick=self.results.last_tick,
        )
        messages = self.session.take()
        for message in messages:
            # The restarted node assigns a new subscription id; the client
            # rebinds its existing result set to it.
            self.results.apply(dataclasses.replace(message, subscription_id=self.sub_id))
        self.sub_id = new_id
        return messages


def crash_and_restart(path, **wal_kwargs):
    """Build a fresh world, recover it from *path*, return its manager."""
    world = build_world()
    world.attach_wal(path, **wal_kwargs)
    return world, world.subscriptions


def test_catchup_delta_matches_fresh_snapshot(tmp_path):
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path, checkpoint_interval=4)
    client = _Client(world.subscriptions)
    for _ in range(TICKS_BEFORE_CRASH):
        world.tick()
    client.drain()
    assert client.results.last_tick == TICKS_BEFORE_CRASH - 1

    # The node keeps ticking while the client is disconnected, then dies.
    for _ in range(TICKS_MISSED):
        world.tick()
    world.detach_wal()

    world2, manager = crash_and_restart(path)
    assert world2.tick_count == world.tick_count  # recovery caught up
    messages = client.resume(manager)
    assert [type(m) for m in messages] == [Delta]
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))
    # And it really was a delta: far fewer rows shipped than a snapshot.
    delta = messages[0]
    assert delta.tick == world.tick_count - 1
    assert client.results.last_tick == delta.tick


def test_catchup_is_cheaper_than_snapshot_when_little_changed(tmp_path):
    """The point of offsets: a nearly-current client gets a tiny delta."""
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path, checkpoint_interval=100)
    client = _Client(world.subscriptions)
    for _ in range(8):
        world.tick()
    client.drain()
    world.set_state("Unit", 0, health=1)  # one stray change while offline
    world.tick()
    world.detach_wal()

    _, manager = crash_and_restart(path)
    (delta,) = client.resume(manager)
    assert isinstance(delta, Delta)
    snapshot_size = len(fresh_snapshot_rows(manager))
    assert len(delta) < snapshot_size
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))


def test_current_client_gets_empty_delta(tmp_path):
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path)
    client = _Client(world.subscriptions)
    for _ in range(3):
        world.tick()
    client.drain()
    world.detach_wal()

    _, manager = crash_and_restart(path)
    (message,) = client.resume(manager)
    assert isinstance(message, Delta)
    assert message.added == () and message.removed == ()
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))


def test_offset_too_old_falls_back_to_snapshot_resync(tmp_path):
    """Trimmed history: the log cannot reach back to the client's offset,
    so the client is re-anchored with a full snapshot, reason-tagged."""
    path = str(tmp_path)
    world = build_world()
    # Tiny segments + auto_trim: checkpoints rapidly obsolete old segments.
    world.attach_wal(path, checkpoint_interval=3, segment_max_bytes=1024, auto_trim=True)
    client = _Client(world.subscriptions)
    client.drain()
    early_tick = client.results.last_tick
    for _ in range(12):
        world.tick()
    world.detach_wal()

    _, manager = crash_and_restart(
        path, checkpoint_interval=3, segment_max_bytes=1024, auto_trim=True
    )
    client.results.last_tick = early_tick  # simulate: client never drained
    (message,) = client.resume(manager)
    assert isinstance(message, Snapshot)
    assert message.reason == "resync:offset-too-old"
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))


def test_predicate_filtered_catchup(tmp_path):
    """Catch-up deltas respect the subscription's filter, exactly like the
    live stream does."""
    predicate = BinaryOp("==", ColumnRef("player"), Literal(0))
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path, checkpoint_interval=4)
    client = _Client(world.subscriptions, predicate=predicate)
    for _ in range(TICKS_BEFORE_CRASH):
        world.tick()
    client.drain()
    for _ in range(TICKS_MISSED):
        world.tick()
    world.detach_wal()

    _, manager = crash_and_restart(path)
    messages = client.resume(manager)
    assert [type(m) for m in messages] == [Delta]
    for row in client.results.rows():
        assert row["player"] == 0
    assert rows_key(client.results.rows()) == rows_key(
        fresh_snapshot_rows(manager, predicate=predicate)
    )


def test_catchup_then_live_stream_continues(tmp_path):
    """After the catch-up delta the subscription is a normal live one."""
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path, checkpoint_interval=4)
    client = _Client(world.subscriptions)
    for _ in range(4):
        world.tick()
    client.drain()
    world.detach_wal()

    world2, manager = crash_and_restart(path)
    client.resume(manager)
    for _ in range(3):
        world2.tick()
    client.drain()
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))
    assert client.results.last_tick == world2.tick_count - 1


def test_resume_without_any_wal_serves_plain_snapshot():
    """A manager with no log at all degrades to the PR 5 behavior."""
    world = build_world()
    manager = world.subscriptions
    session = manager.connect("client")
    manager.resume_table_subscription(session, "Unit", last_seen_tick=3)
    (message,) = session.take()
    assert isinstance(message, Snapshot)
    assert message.reason == "subscribe"


def test_drifted_table_forces_snapshot(tmp_path):
    """Mutations after the last commit (e.g. out-of-tick set_state on the
    restarted node) make offset catch-up unsound: delta through the last
    commit plus a drifted live table would desynchronize the client."""
    path = str(tmp_path)
    world = build_world()
    world.attach_wal(path, checkpoint_interval=4)
    client = _Client(world.subscriptions)
    for _ in range(4):
        world.tick()
    client.drain()
    world.detach_wal()

    world2, manager = crash_and_restart(path)
    world2.set_state("Unit", 1, health=7)  # drift: not yet committed
    (message,) = client.resume(manager)
    assert isinstance(message, Snapshot)
    assert message.reason == "resync:offset-too-old"
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))


def test_resume_after_detach_serves_plain_snapshot(tmp_path):
    """A detached WAL serves no catch-up: the manager reads the world's
    WAL as it is now, so a resume after ``detach_wal`` is a plain
    subscribe, not a re-anchor against the closed log."""
    world = build_world()
    manager = world.subscriptions  # exists before the WAL is attached
    world.attach_wal(str(tmp_path), checkpoint_interval=4)
    for _ in range(3):
        world.tick()
    world.detach_wal()
    world.tick()
    session = manager.connect("client")
    manager.resume_table_subscription(session, "Unit", last_seen_tick=1)
    (message,) = session.take()
    assert isinstance(message, Snapshot)
    assert message.reason == "subscribe"


def live_tables(world):
    return {
        name: world.catalog.table(name).snapshot()
        for generated in world.schemas.values()
        for name in generated.state_table_names()
    }


def test_full_table_record_after_a_restore(tmp_path):
    """An out-of-tick ``Table.restore`` resets the table's change log, so
    the next commit cannot net a delta and writes the whole table instead.
    Replay and recovery read through that record; catch-up across it
    re-anchors the client."""
    world = build_world()
    wal = world.attach_wal(str(tmp_path), checkpoint_interval=100)
    client = _Client(world.subscriptions)
    live = {}
    for _ in range(3):
        world.tick()
        live[world.tick_count - 1] = live_tables(world)
    client.drain()
    seen = client.results.last_tick

    units = world.catalog.table("Unit")
    units.restore(units.snapshot())
    world.tick()
    full_tick = world.tick_count - 1
    live[full_tick] = live_tables(world)
    assert wal.full_table_records == 1
    (record,) = [
        r for r in iter_log_records(wal.log) if r.get("k") == "c" and r["t"] == full_tick
    ]
    assert "f" in record["tables"]["Unit"] and "d" not in record["tables"]["Unit"]
    for _ in range(2):
        world.tick()
        live[world.tick_count - 1] = live_tables(world)
    assert wal.full_table_records == 1  # later commits are deltas again

    for tick, tables in live.items():
        assert replay_tables(wal.log, tick=tick).tables == tables, tick
        recovered = build_world()
        recover_world(recovered, wal.log, tick=tick)
        assert live_tables(recovered) == tables, tick

    assert net_table_changes(wal.log, "Unit", seen) is None
    assert net_table_changes(wal.log, "Unit", full_tick) is not None
    (message,) = client.resume(world.subscriptions)
    assert isinstance(message, Snapshot)
    assert message.reason == "resync:offset-too-old"
    assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(world.subscriptions))



def test_catchup_across_a_rewind(tmp_path):
    """A client at or before the rewind point holds the new timeline's
    state and catches up with a delta; one that was past it may hold the
    abandoned ticks, and one past the log's end certainly does: both
    resync."""
    world = build_world()
    wal = world.attach_wal(str(tmp_path), checkpoint_interval=4)
    behind = _Client(world.subscriptions)
    for _ in range(3):
        world.tick()
    behind.drain()
    ahead = _Client(world.subscriptions)
    for _ in range(5):
        world.tick()
    ahead.drain()
    assert (behind.results.last_tick, ahead.results.last_tick) == (2, 7)

    world.rewind_to(4)
    for _ in range(2):
        world.tick()
    assert net_table_changes(wal.log, "Unit", 3) is not None
    assert net_table_changes(wal.log, "Unit", 4) is None  # abandoned span
    assert net_table_changes(wal.log, "Unit", 9) is None  # past the end

    manager = world.subscriptions
    assert [type(m) for m in behind.resume(manager)] == [Delta]
    (message,) = ahead.resume(manager)
    assert isinstance(message, Snapshot)
    assert message.reason == "resync:offset-too-old"
    for client in (behind, ahead):
        assert rows_key(client.results.rows()) == rows_key(fresh_snapshot_rows(manager))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
