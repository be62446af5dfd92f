"""The live subscription service: snapshot-then-delta correctness.

The central property (the PR's acceptance criterion): for every
subscriber, the initial snapshot plus the applied delta stream equals
re-running the standing query from scratch each tick — under randomized
churn across the rts/traffic/marketplace workloads, including AOI
subscriptions with moving observers, change-log-overflow resyncs and
outbox-overflow resyncs.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Catalog, Column, DataType, EngineConfig, Schema
from repro.engine.algebra import Aggregate, AggregateSpec, Select, TableScan
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor
from repro.engine.expressions import BinaryOp, ColumnRef, Literal
from repro.engine.indexes.grid_index import GridIndex
from repro.runtime.physics import PhysicsComponent, PhysicsConfig
from repro.runtime.world import GameWorld
from repro.service.protocol import (
    Delta,
    ResultSet,
    Snapshot,
    decode_message,
    encode_message,
    row_key,
)
from repro.service.subscriptions import SubscriptionManager
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import attach_fog_of_war, build_rts_world, unit_rows
from repro.workloads.traffic import build_traffic_world


def multiset(rows):
    return sorted(map(row_key, rows))


def drain(session, states):
    for message in session.take():
        states[message.subscription_id].apply(message)


def primary_table(world, class_name):
    return world.catalog.table(world.schemas[class_name].primary_table)


def aoi_expected(table, dims, center, radius):
    out = []
    for row in table.rows():
        if all(
            row[d] is not None and abs(row[d] - c) <= r
            for d, c, r in zip(dims, center, radius)
        ):
            out.append(dict(row))
    return out


# ------------------------------------------------------------------------------------
# protocol primitives
# ------------------------------------------------------------------------------------


class TestProtocol:
    def test_snapshot_then_delta_roundtrip(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1}, {"a": 2})))
        rs.apply(Delta(subscription_id=1, tick=1, added=({"a": 3},), removed=({"a": 1},)))
        assert multiset(rs.rows()) == multiset([{"a": 2}, {"a": 3}])

    def test_resultset_tracks_duplicates_as_multiset(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1}, {"a": 1})))
        rs.apply(Delta(subscription_id=1, tick=1, removed=({"a": 1},)))
        assert multiset(rs.rows()) == multiset([{"a": 1}])

    def test_resultset_rejects_unknown_removal(self):
        rs = ResultSet()
        rs.apply(Snapshot(subscription_id=1, tick=0, rows=({"a": 1},)))
        with pytest.raises(ValueError):
            rs.apply(Delta(subscription_id=1, tick=1, removed=({"a": 2},)))

    def test_json_codec_roundtrip(self):
        for message in (
            Snapshot(subscription_id=3, tick=7, rows=({"x": 1.5, "s": "hi"},), reason="resync:outbox"),
            Delta(subscription_id=3, tick=8, added=({"x": 2},), removed=({"x": 1.5, "s": "hi"},)),
        ):
            decoded = decode_message(encode_message(message))
            assert decoded == message

    def test_changed_records_roundtrip_and_update_in_place(self):
        snapshot = Snapshot(
            subscription_id=4, tick=0, rows=({"id": 1, "x": 1.0, "tag": "a"},), key="id"
        )
        delta = Delta(
            subscription_id=4,
            tick=1,
            added=({"id": 2, "x": 5.0, "tag": None},),
            changed=({"id": 1, "x": None},),
        )
        assert len(delta) == 2  # one row, one record
        rs = ResultSet()
        for message in (snapshot, delta):
            line = encode_message(message)
            assert isinstance(line, bytes) and b"\n" not in line
            assert decode_message(line) == message
            rs.apply(decode_message(line.decode()))  # str lines decode too
        assert multiset(rs.rows()) == multiset(
            [{"id": 1, "x": None, "tag": "a"}, {"id": 2, "x": 5.0, "tag": None}]
        )
        # Messages stay untouched: apply copies what it keeps.
        assert snapshot.rows[0] == {"id": 1, "x": 1.0, "tag": "a"}

    def test_changed_is_as_strict_as_removed(self):
        keyed = ResultSet()
        keyed.apply(Snapshot(subscription_id=1, tick=0, rows=({"id": 1, "x": 1},), key="id"))
        with pytest.raises(ValueError, match="changes a row"):
            keyed.apply(Delta(subscription_id=1, tick=1, changed=({"id": 2, "x": 3},)))
        with pytest.raises(ValueError, match="adds a row"):
            keyed.apply(Delta(subscription_id=1, tick=1, added=({"id": 1, "x": 3},)))
        with pytest.raises(ValueError, match="removes a row"):
            keyed.apply(Delta(subscription_id=1, tick=1, removed=({"id": 2, "x": 1},)))
        plain = ResultSet()
        plain.apply(Snapshot(subscription_id=1, tick=0, rows=({"id": 1, "x": 1},)))
        with pytest.raises(ValueError, match="changes a row"):
            plain.apply(Delta(subscription_id=1, tick=1, changed=({"id": 1, "x": 3},)))

    def test_one_fragment_cache_serializes_a_shared_row_once(self):
        row = {"id": 1, "x": 2.5}
        messages = [Delta(subscription_id=k, tick=3, added=(row,)) for k in range(3)]
        fragments = {}
        lines = [encode_message(m, fragments) for m in messages]
        assert list(fragments) == [id(row)] and fragments[id(row)][0] is row
        assert [decode_message(line) for line in lines] == messages

    def test_non_stream_lines_do_not_decode(self):
        for line in (b'{"type": "pong", "tick": 4}', b'{"type": "subscribed", "id": 7}', b"{"):
            with pytest.raises(ValueError):
                decode_message(line)


# ------------------------------------------------------------------------------------
# standing-query groups on a bare catalog
# ------------------------------------------------------------------------------------


def build_bare_catalog(n=60, seed=7):
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
        ]
    )
    table = catalog.create_table("unit", schema, key="id")
    rng = random.Random(seed)
    for i in range(n):
        table.insert(
            {"id": i, "player": i % 3, "x": rng.randrange(100), "y": rng.randrange(100)}
        )
    return catalog, table


class TestStandingQueryGroups:
    def test_filter_subscription_streams_from_change_log(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_table(
            session, "unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(1))
        )
        group = manager._groups[next(iter(manager._groups))]
        assert group.cursor_mode
        evaluations_before = group.evaluations
        states = {sid: ResultSet()}
        drain(session, states)
        rng = random.Random(1)
        for tick in range(8):
            for _ in range(6):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"x": rng.randrange(100), "player": rng.randrange(3)})
            manager.flush(tick)
            drain(session, states)
            expect = [dict(r) for r in table.rows() if r["player"] == 1]
            assert multiset(expect) == multiset(states[sid].rows())
        # Cursor mode never re-executes the query to produce deltas.
        assert group.evaluations == evaluations_before

    def test_equivalent_queries_share_one_group_across_aliases(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        sess_a, sess_b = manager.connect(), manager.connect()
        plan_a = Select(TableScan("unit", alias="a"), BinaryOp(">", ColumnRef("a.x"), Literal(50)))
        plan_b = Select(TableScan("unit", alias="b"), BinaryOp(">", ColumnRef("b.x"), Literal(50)))
        sid_a = manager.subscribe_query(sess_a, plan_a)
        sid_b = manager.subscribe_query(sess_b, plan_b)
        assert len(manager._groups) == 1  # PR-4 fingerprints dedupe the aliases
        stats = manager.stats()
        assert stats["query_subscribers"] == 2
        assert stats["query_groups"] == 1
        assert stats["dedup_factor"] == 2.0
        states = {sid_a: ResultSet(), sid_b: ResultSet()}
        drain(sess_a, states)
        drain(sess_b, states)
        rng = random.Random(2)
        for tick in range(5):
            for _ in range(8):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"x": rng.randrange(100)})
            manager.flush(tick)
            drain(sess_a, states)
            drain(sess_b, states)
            hot = [r for r in table.rows() if r["x"] > 50]
            expect_a = [{f"a.{k}": v for k, v in r.items()} for r in hot]
            expect_b = [{f"b.{k}": v for k, v in r.items()} for r in hot]
            assert multiset(expect_a) == multiset(states[sid_a].rows())
            assert multiset(expect_b) == multiset(states[sid_b].rows())

    def test_aggregate_standing_query_uses_requery_mode(self):
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        plan = Aggregate(
            TableScan("unit"),
            group_by=("player",),
            aggregates=(AggregateSpec("n", "count", None),),
        )
        sid = manager.subscribe_query(session, plan)
        group = manager._groups[next(iter(manager._groups))]
        assert not group.cursor_mode
        states = {sid: ResultSet()}
        drain(session, states)
        rng = random.Random(3)
        scratch = Executor(catalog)
        for tick in range(6):
            for _ in range(5):
                rid = rng.choice(list(table.row_ids()))
                table.update(rid, {"player": rng.randrange(3)})
            manager.flush(tick)
            drain(session, states)
            expect = scratch.execute(
                Aggregate(
                    TableScan("unit"),
                    group_by=("player",),
                    aggregates=(AggregateSpec("n", "count", None),),
                ),
                cache=False,
            ).rows
            assert multiset(expect) == multiset(states[sid].rows())

    def test_late_subscriber_snapshot_aligns_with_stream(self):
        """Subscribing mid-stream must not double-deliver the pending delta."""
        catalog, table = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        early = manager.connect()
        sid_early = manager.subscribe_table(early, "unit")
        states = {sid_early: ResultSet()}
        drain(early, states)
        manager.flush(0)
        # Mutations land *between* flushes, then a second client subscribes.
        table.insert({"id": 1000, "player": 0, "x": 1, "y": 1})
        late = manager.connect()
        sid_late = manager.subscribe_table(late, "unit")
        states[sid_late] = ResultSet()
        drain(late, states)
        manager.flush(1)
        drain(early, states)
        drain(late, states)
        expect = [dict(r) for r in table.rows()]
        assert multiset(expect) == multiset(states[sid_early].rows())
        assert multiset(expect) == multiset(states[sid_late].rows())

    def test_churning_subscribers_do_not_grow_executor_state(self):
        """Connect/subscribe/disconnect loops (every TCP request builds a
        fresh plan object) must not leak plan-cache or incremental-view
        entries in the shared executor."""
        catalog, _ = build_bare_catalog(n=20)
        executor = Executor(catalog)
        manager = SubscriptionManager(catalog=catalog, executor=executor)
        for i in range(30):
            session = manager.connect()
            manager.subscribe_table(
                session, "unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(1))
            )
            manager.subscribe_query(
                session,
                Aggregate(
                    TableScan("unit"),
                    group_by=("player",),
                    aggregates=(AggregateSpec("n", "count", None),),
                ),
            )
            manager.disconnect(session)
        assert manager.subscription_count() == 0
        assert len(executor._cache) == 0
        assert len(executor._incremental) == 0

    def test_unsubscribe_drops_group_and_disconnect_cleans_up(self):
        catalog, _ = build_bare_catalog()
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_table(session, "unit")
        aid = manager.subscribe_aoi(session, "unit", radius=10, center=(50, 50))
        assert manager.subscription_count() == 2
        assert manager.unsubscribe(session, sid)
        assert not manager._groups  # last subscriber gone → group dropped
        manager.disconnect(session)
        assert manager.subscription_count() == 0
        assert not manager.unsubscribe(session, aid)


# ------------------------------------------------------------------------------------
# the equivalence property under randomized churn, across workloads
# ------------------------------------------------------------------------------------


class EquivalenceHarness:
    """Subscriptions + scratch re-execution + per-tick comparison."""

    def __init__(self, world, class_name):
        self.world = world
        self.class_name = class_name
        self.table = primary_table(world, class_name)
        self.manager = world.subscriptions
        self.session = self.manager.connect()
        self.states: dict[int, ResultSet] = {}
        self.checks = []  # (subscription_id, scratch_fn)

    def add_filter(self, predicate_expr, predicate_fn):
        sid = self.manager.subscribe_table(self.session, self.class_name, predicate=predicate_expr)
        self.states[sid] = ResultSet()
        self.checks.append(
            (sid, lambda: [dict(r) for r in self.table.rows() if predicate_fn(r)])
        )
        return sid

    def add_aoi(self, radius, center=None, observer_id=None, dims=("x", "y")):
        sid = self.manager.subscribe_aoi(
            self.session,
            self.class_name,
            radius=radius,
            dims=dims,
            center=center,
            observer_id=observer_id,
        )
        self.states[sid] = ResultSet()
        radii = (radius,) * len(dims) if not isinstance(radius, (tuple, list)) else radius

        def scratch():
            if observer_id is not None:
                observer = self.table.get_by_key(observer_id)
                if observer is None:
                    return []
                box_center = tuple(observer[d] for d in dims)
            else:
                box_center = tuple(center)
            return aoi_expected(self.table, dims, box_center, radii)

        self.checks.append((sid, scratch))
        return sid

    def drain(self):
        drain(self.session, self.states)

    def verify(self, context=""):
        for sid, scratch in self.checks:
            expect = multiset(scratch())
            got = multiset(self.states[sid].rows())
            assert expect == got, f"subscription {sid} diverged {context}"


class TestWorkloadEquivalence:
    def test_rts_randomized_churn(self):
        world = build_rts_world(50, seed=5)
        harness = EquivalenceHarness(world, "Unit")
        harness.add_filter(
            BinaryOp("==", ColumnRef("player"), Literal(1)), lambda r: r["player"] == 1
        )
        harness.add_filter(
            BinaryOp(">", ColumnRef("health"), Literal(95)), lambda r: r["health"] > 95
        )
        harness.add_aoi(radius=20, center=(50, 50))
        harness.add_aoi(radius=15, observer_id=3)  # moves every tick (physics)
        harness.add_aoi(radius=10, observer_id=8)
        harness.drain()
        harness.verify("at subscribe")
        rng = random.Random(11)
        next_spawn = 1000
        for tick in range(12):
            # Randomized churn: spawns, destroys, direct state writes.
            for _ in range(rng.randrange(4)):
                world.spawn(
                    "Unit",
                    player=rng.randrange(2),
                    x=rng.uniform(0, 100),
                    y=rng.uniform(0, 100),
                    health=100,
                )
                next_spawn += 1
            ids = [r["id"] for r in harness.table.rows()]
            if len(ids) > 20 and rng.random() < 0.5:
                world.destroy("Unit", rng.choice(ids))
            if ids:
                world.set_state(
                    "Unit", rng.choice(ids), x=rng.uniform(0, 100), y=rng.uniform(0, 100)
                )
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_traffic_randomized_churn(self):
        world = build_traffic_world(60, seed=9)
        harness = EquivalenceHarness(world, "Vehicle")
        harness.add_filter(
            BinaryOp("==", ColumnRef("lane"), Literal(1)), lambda r: r["lane"] == 1
        )
        harness.add_aoi(radius=80, center=(500,), dims=("position",))
        harness.drain()
        rng = random.Random(13)
        for tick in range(10):
            ids = [r["id"] for r in harness.table.rows()]
            world.set_state(
                "Vehicle", rng.choice(ids), lane=rng.randrange(4), position=rng.uniform(0, 1000)
            )
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_marketplace_randomized_churn(self):
        world = build_marketplace_world(24, seed=3)
        harness = EquivalenceHarness(world, "Trader")
        harness.add_filter(
            BinaryOp("==", ColumnRef("is_seller"), Literal(1)), lambda r: r["is_seller"] == 1
        )
        harness.add_filter(
            BinaryOp(">", ColumnRef("gold"), Literal(25)), lambda r: r["gold"] > 25
        )
        harness.drain()
        rng = random.Random(17)
        for tick in range(8):
            ids = [r["id"] for r in harness.table.rows()]
            world.set_state("Trader", rng.choice(ids), gold=rng.uniform(0, 60))
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")

    def test_rts_change_log_overflow_forces_snapshot_resync(self):
        world = build_rts_world(
            40, seed=5, config=EngineConfig(use_incremental=False)
        )
        table = primary_table(world, "Unit")
        table.enable_change_log(capacity=8)  # one tick of physics overflows this
        harness = EquivalenceHarness(world, "Unit")
        sid = harness.add_filter(
            BinaryOp(">", ColumnRef("health"), Literal(10)), lambda r: r["health"] > 10
        )
        aid = harness.add_aoi(radius=25, observer_id=5)
        harness.drain()
        for tick in range(5):
            world.tick()
            harness.drain()
            harness.verify(f"at tick {tick}")
        assert harness.states[sid].snapshots_applied > 1
        assert harness.states[aid].snapshots_applied > 1

    def test_outbox_overflow_resyncs_within_same_flush(self):
        world = build_rts_world(40, seed=5)
        manager = world.subscriptions
        session = manager.connect(outbox_capacity=2)
        table = primary_table(world, "Unit")
        sids = [
            manager.subscribe_table(session, "Unit"),
            manager.subscribe_table(
                session, "Unit", predicate=BinaryOp("==", ColumnRef("player"), Literal(0))
            ),
            manager.subscribe_aoi(session, "Unit", radius=30, center=(50, 50)),
        ]
        states = {sid: ResultSet() for sid in sids}
        drain(session, states)
        for tick in range(7):
            world.tick()
            if tick % 3 == 0:
                drain(session, states)  # slow consumer: skips most ticks
        # Whenever the consumer drains, it must land on current state — the
        # flush converts refused deltas into resync snapshots immediately.
        drain(session, states)
        assert session.outbox.overflows > 0
        full = [dict(r) for r in table.rows()]
        assert multiset(full) == multiset(states[sids[0]].rows())
        assert multiset([r for r in full if r["player"] == 0]) == multiset(
            states[sids[1]].rows()
        )
        assert multiset(
            [r for r in full if abs(r["x"] - 50) <= 30 and abs(r["y"] - 50) <= 30]
        ) == multiset(states[sids[2]].rows())


# ------------------------------------------------------------------------------------
# spatial interest management specifics
# ------------------------------------------------------------------------------------


class TestInterestManagement:
    def test_moved_row_only_touches_subscribers_with_overlapping_cells(self):
        catalog, table = build_bare_catalog(n=0)
        for i, (x, y) in enumerate([(10, 10), (90, 90), (12, 12)]):
            table.insert({"id": i, "player": 0, "x": x, "y": y})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        near = manager.connect()
        far = manager.connect()
        sid_near = manager.subscribe_aoi(near, "unit", radius=8, center=(10, 10), cell_size=8)
        sid_far = manager.subscribe_aoi(far, "unit", radius=8, center=(90, 90))
        near.take(), far.take()
        # Move the unit at (12,12) slightly: only the near AOI is affected.
        table.update(table.rowid_for_key(2), {"x": 14.0})
        manager.flush(0)
        interest = manager._subs[sid_near][1]
        assert interest.last_stats["touched_subs"] == 1
        near_msgs, far_msgs = near.take(), far.take()
        assert len(near_msgs) == 1 and isinstance(near_msgs[0], Delta)
        assert far_msgs == []
        assert sid_far not in {m.subscription_id for m in near_msgs}

    def test_observer_enter_exit_semantics(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 0, "y": 0})    # the observer
        table.insert({"id": 1, "player": 0, "x": 30, "y": 0})   # out of range
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_aoi(session, "unit", radius=10, observer_id=0)
        rs = ResultSet()
        for m in session.take():
            rs.apply(m)
        assert multiset(rs.rows()) == multiset([dict(r) for r in table.rows() if r["id"] == 0])
        # Observer walks toward the other unit: it enters the AOI.
        table.update(table.rowid_for_key(0), {"x": 25.0})
        manager.flush(0)
        for m in session.take():
            rs.apply(m)
        assert {r["id"] for r in rs.rows()} == {0, 1}
        # Observer destroyed: the view empties (standing query over nothing).
        table.delete(table.rowid_for_key(0))
        manager.flush(1)
        for m in session.take():
            rs.apply(m)
        assert rs.rows() == []

    def test_fog_of_war_workload_streams_match_vision_boxes(self):
        world = build_rts_world(40, seed=5)
        manager, sessions, sub_ids = attach_fog_of_war(world, n_observers=5, vision=12.0)
        states = {sid: ResultSet() for sid in sub_ids}
        observers = {}
        for session, sid in zip(sessions, sub_ids):
            for message in session.take():
                states[sid].apply(message)
            observers[sid] = manager._subs[sid][1].subscription(sid).observer_key
        table = primary_table(world, "Unit")
        for tick in range(6):
            world.tick()
            for session, sid in zip(sessions, sub_ids):
                for message in session.take():
                    states[sid].apply(message)
                observer = table.get_by_key(observers[sid])
                expect = aoi_expected(table, ("x", "y"), (observer["x"], observer["y"]), (12.0, 12.0))
                assert multiset(expect) == multiset(states[sid].rows()), f"tick {tick}"
        report = world.reports[-1]
        assert report.subscription_messages > 0
        assert report.flush_seconds > 0.0
        assert report.total_seconds >= report.flush_seconds


    def test_moved_row_in_a_still_box_costs_one_changed_record(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 10, "y": 10})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        a, b = manager.connect(), manager.connect()
        manager.subscribe_aoi(a, "unit", radius=8, center=(10, 10))
        manager.subscribe_aoi(b, "unit", radius=8, center=(12, 12))
        (snap_a,), (snap_b,) = a.take(), b.take()
        assert snap_a.key == "id" and snap_a.rows[0] is snap_b.rows[0]  # one shared copy
        table.update(table.rowid_for_key(0), {"x": 11.0})
        stats = manager.flush(0)
        (delta_a,), (delta_b,) = a.take(), b.take()
        assert delta_a.changed == ({"id": 0, "x": 11.0},)
        assert not delta_a.added and not delta_a.removed
        assert delta_a.changed[0] is delta_b.changed[0]  # built once, shared
        assert stats["delta_rows"] == 2 and stats["aoi_changed_records"] == 2
        assert stats["aoi_routed_rows"] == 1 and stats["aoi_touched_subs"] == 2

    def test_changed_carries_nulls_sets_and_a_key_update_is_remove_plus_add(self):
        catalog = Catalog()
        table = catalog.create_table(
            "thing",
            Schema(
                [
                    Column("id", DataType.NUMBER, nullable=False),
                    Column("x", DataType.NUMBER),
                    Column("y", DataType.NUMBER),
                    Column("owner", DataType.NUMBER),
                    Column("tags", DataType.SET),
                ]
            ),
            key="id",
        )
        table.insert({"id": 1, "x": 5, "y": 5, "owner": 3, "tags": frozenset({"a"})})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_aoi(session, "thing", radius=10, center=(5, 5))
        replica = ResultSet()

        def pump():
            messages = session.take()
            for message in messages:
                replica.apply(decode_message(encode_message(message)))
            return messages

        def wire_rows():
            return [dict(row, tags=sorted(row["tags"])) for row in table.rows()]

        pump()
        table.update(table.rowid_for_key(1), {"owner": None, "tags": frozenset({"b", "c"})})
        manager.flush(0)
        (delta,) = pump()
        assert delta.changed == ({"id": 1, "owner": None, "tags": frozenset({"b", "c"})},)
        assert replica.rows() == wire_rows()
        # A row whose x goes NULL is in no box any more: it leaves.
        table.update(table.rowid_for_key(1), {"x": None})
        manager.flush(1)
        (delta,) = pump()
        assert len(delta.removed) == 1 and not delta.changed and replica.rows() == []
        table.update(table.rowid_for_key(1), {"x": 6.0})
        manager.flush(2)
        pump()
        assert replica.rows() == wire_rows()
        # The key column itself changes: the old key leaves, the new one enters.
        table.update(table.rowid_for_key(1), {"id": 2})
        manager.flush(3)
        (delta,) = pump()
        assert [r["id"] for r in delta.removed] == [1] and [r["id"] for r in delta.added] == [2]
        assert not delta.changed and replica.rows() == wire_rows()
        assert manager._subs[sid][1].last_stats["changed_records"] == 0

    def test_last_unsubscribe_releases_the_manager_and_resubscribe_is_current(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 10, "y": 10})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        first = manager.subscribe_aoi(session, "unit", radius=8, center=(10, 10))
        second = manager.subscribe_aoi(session, "unit", radius=8, observer_id=0)
        interest = manager._subs[first][1]
        session.take()
        assert manager.unsubscribe(session, first)
        assert manager._interest and interest._cursor is not None  # one subscriber left
        assert manager.unsubscribe(session, second)
        assert not manager._interest  # the empty manager is dropped ...
        assert interest._cursor is None and not interest._rows  # ... cursor and grid released
        assert not interest._cells and not interest._followers
        # Mutations nobody listens to, then a new subscriber.
        table.update(table.rowid_for_key(0), {"x": 12.0})
        table.insert({"id": 1, "player": 0, "x": 11, "y": 11})
        sid = manager.subscribe_aoi(session, "unit", radius=8, center=(10, 10))
        replica = ResultSet()
        (snapshot,) = session.take()
        replica.apply(snapshot)
        assert multiset(replica.rows()) == multiset(dict(r) for r in table.rows())
        table.update(table.rowid_for_key(1), {"y": 12.0})
        manager.flush(0)
        (delta,) = session.take()
        # Only what happened after the subscribe: not the earlier move or insert.
        assert delta.subscription_id == sid and delta.changed == ({"id": 1, "y": 12.0},)
        assert not delta.added and not delta.removed

    def test_late_aoi_subscriber_aligns_with_the_stream(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 10, "y": 10})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        early, late = manager.connect(), manager.connect()
        states = {manager.subscribe_aoi(early, "unit", radius=8, center=(10, 10)): ResultSet()}
        drain(early, states)
        manager.flush(0)
        table.update(table.rowid_for_key(0), {"x": 11.0})  # between flushes
        states[manager.subscribe_aoi(late, "unit", radius=8, center=(10, 10))] = ResultSet()
        table.insert({"id": 1, "player": 0, "x": 9, "y": 9})
        manager.flush(1)
        drain(early, states)
        drain(late, states)
        for state in states.values():
            assert multiset(state.rows()) == multiset(dict(r) for r in table.rows())

    def test_late_subscribe_flush_is_counted_by_the_next_flush(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 0, "x": 10, "y": 10})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        early, late = manager.connect(), manager.connect()
        manager.subscribe_aoi(early, "unit", radius=8, center=(10, 10))
        manager.flush(0)
        table.update(table.rowid_for_key(0), {"x": 11.0})
        manager.subscribe_aoi(late, "unit", radius=8, center=(10, 10))  # flushes for `early`
        assert [type(m) for m in early.take()] == [Snapshot, Delta]
        stats = manager.flush(1)  # nothing new happened, but the work above is reported
        assert stats["messages"] == 1 and stats["delta_rows"] == 1
        assert stats["aoi_routed_rows"] == 1 and stats["aoi_changed_records"] == 1
        assert manager.flush(2)["messages"] == 0  # ... once

    def test_a_value_that_only_changes_type_rides_along_with_a_change(self):
        catalog, table = build_bare_catalog(n=0)
        table.insert({"id": 0, "player": 1, "x": 10, "y": 10})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        manager.subscribe_aoi(session, "unit", radius=8, center=(10, 10))
        replica = ResultSet()
        replica.apply(decode_message(encode_message(session.take()[0])))
        # The change log nets by equality, so 1 -> 1.0 alone is no change to
        # anyone; next to a real change the record carries the new type too.
        table.update(table.rowid_for_key(0), {"player": 1.0, "x": 11})
        manager.flush(0)
        (delta,) = session.take()
        assert delta.changed == ({"id": 0, "player": 1.0, "x": 11},)
        replica.apply(decode_message(encode_message(delta)))
        assert type(replica.rows()[0]["player"]) is float

    def _camera_catalog(self, columns):
        catalog, table = build_bare_catalog(n=0)
        for i, (x, y) in enumerate([(10, 10), (50, 50), (90, 90)]):
            table.insert({"id": i, "player": 0, "x": x, "y": y})
        camera = catalog.create_table(
            "camera",
            Schema([Column("cam", DataType.NUMBER, nullable=False)]
                   + [Column(c, DataType.NUMBER) for c in columns]),
            key="cam",
        )
        return catalog, table, camera

    def test_observer_row_of_another_table_moves_the_box(self):
        catalog, table, camera = self._camera_catalog(["x", "y"])
        camera.insert({"cam": 7, "x": 12, "y": 12})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        sid = manager.subscribe_aoi(
            session, "unit", radius=8, observer_id=7, observer_table="camera"
        )
        states = {sid: ResultSet()}

        def seen():
            drain(session, states)
            return {r["id"] for r in states[sid].rows()}

        assert seen() == {0}
        camera.update(camera.rowid_for_key(7), {"x": 52.0, "y": 52.0})
        stats = manager.flush(0)
        assert seen() == {1} and stats["aoi_refetched_subs"] == 1
        # A watched row changes while the camera rests: routed, not refetched.
        table.update(table.rowid_for_key(2), {"x": 55.0, "y": 55.0})
        stats = manager.flush(1)
        assert seen() == {1, 2} and stats["aoi_refetched_subs"] == 0
        # Camera looks nowhere (NULL coordinate), is destroyed, comes back.
        camera.update(camera.rowid_for_key(7), {"x": None})
        manager.flush(2)
        assert seen() == set()
        camera.delete(camera.rowid_for_key(7))
        assert manager.flush(3)["messages"] == 0
        camera.insert({"cam": 7, "x": 10, "y": 10})
        manager.flush(4)
        assert seen() == {0}
        assert manager.unsubscribe(session, sid) and not manager._interest

    def test_observer_table_without_the_watched_dims_is_refused_cleanly(self):
        catalog, table, camera = self._camera_catalog(["px", "py"])
        camera.insert({"cam": 7, "px": 12, "py": 12})
        manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
        session = manager.connect()
        with pytest.raises(ExecutionError, match="camera.*no column"):
            manager.subscribe_aoi(session, "unit", radius=8, observer_id=7, observer_table="camera")
        # Nothing was registered: no manager, no subscription, flushes keep working.
        assert not manager._interest and not manager._subs and not session.subscription_ids
        assert manager.flush(0)["messages"] == 0
        # The same refusal next to a live subscriber leaves that one untouched.
        sid = manager.subscribe_aoi(session, "unit", radius=8, center=(10, 10))
        with pytest.raises(ExecutionError):
            manager.subscribe_aoi(session, "unit", radius=8, observer_id=7, observer_table="camera")
        # Failures past the column check roll back too: a keyless observer
        # table, an observer id (client JSON) that cannot be a key.
        catalog.create_table("keyless", Schema([Column(c, DataType.NUMBER) for c in ("x", "y")]))
        with pytest.raises(ExecutionError, match="no key column"):
            manager.subscribe_aoi(session, "unit", radius=8, observer_id=7, observer_table="keyless")
        catalog.create_table(
            "goodcam",
            Schema([Column("cam", DataType.NUMBER, nullable=False)]
                   + [Column(c, DataType.NUMBER) for c in ("x", "y")]),
            key="cam",
        )
        with pytest.raises(TypeError):
            manager.subscribe_aoi(session, "unit", radius=8, observer_id=[7], observer_table="goodcam")
        interest = manager._subs[sid][1]
        assert len(interest) == 1 and not interest._foreign and interest._cursor is not None
        assert session.subscription_ids == {sid} and manager.subscription_count() == 1
        table.update(table.rowid_for_key(0), {"x": 11.0})
        assert manager.flush(1)["messages"] == 1
        manager.disconnect(session)
        assert not manager._interest and not manager._subs

    def test_flush_counters_reach_the_inspector_and_the_metrics(self):
        from repro.runtime.debug.inspector import TickInspector

        world = build_rts_world(40, seed=5)
        metrics = world.attach_metrics()
        attach_fog_of_war(world, n_observers=4, vision=12.0)
        for _ in range(3):
            world.tick()
        counters = TickInspector(world).tick_counters()
        flush = world.subscriptions.last_flush_stats
        for name in ("routed_rows", "touched_subs", "refetched_subs", "candidate_rows", "changed_records"):
            assert counters[f"aoi_{name}"] == flush[f"aoi_{name}"]
        assert counters["aoi_routed_rows"] == 40 and 1 <= counters["aoi_refetched_subs"] <= 4
        assert 0 < counters["aoi_changed_records"] <= counters["subscription_delta_rows"]
        # Box reads probe the grid: far fewer rows checked than subscribers x table.
        assert 0 < counters["aoi_candidate_rows"] < 4 * 40
        scraped = metrics.registry.as_dict()
        total = sum(report.aoi_candidate_rows for report in world.reports)
        assert f"{total}" in str(scraped["repro_aoi_candidate_rows_total"])


# ------------------------------------------------------------------------------------
# the wire replica property: decode(encode(stream)) == a fresh box query, every tick
# ------------------------------------------------------------------------------------

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

script drift(Mover self) {
  vx <- dx;
  vy <- dy;
}
"""

WORLD_SIZE = 100.0


def build_mover_world(n=40, seed=5):
    """Join-free: the engine does almost nothing, every row moves every tick."""
    world = GameWorld(MOVER_SOURCE)
    world.add_component(
        PhysicsComponent(
            PhysicsConfig(class_name="Mover", world_max_x=WORLD_SIZE, world_max_y=WORLD_SIZE)
        )
    )
    rng = random.Random(seed)
    world.spawn_many(
        "Mover",
        [
            {
                "x": rng.uniform(0, WORLD_SIZE),
                "y": rng.uniform(0, WORLD_SIZE),
                "dx": rng.uniform(-1, 1),
                "dy": rng.uniform(-1, 1),
            }
            for _ in range(n)
        ],
    )
    return world


WIRE_WORLDS = {
    "rts": ("Unit", lambda: build_rts_world(40, seed=5), {"player": 1, "health": 100}),
    "mover": ("Mover", build_mover_world, {"dx": 0.5, "dy": -0.5}),
}

_coord = st.floats(min_value=0.0, max_value=WORLD_SIZE, allow_nan=False)
_pick = st.integers(min_value=0, max_value=10**6)
_op = st.one_of(
    st.tuples(st.just("spawn"), _coord, _coord),
    st.tuples(st.just("destroy"), _pick),
    st.tuples(st.just("teleport"), _pick, _coord, _coord),
    st.just(("destroy_observer",)),
    st.tuples(st.just("move_camera"), _coord, _coord),  # observer row of another table
    st.just(("toggle_camera",)),  # ... destroyed, or put back
    st.just(("skip_drain",)),  # the next flush overflows the outbox
    st.just(("lose_change_log",)),
)


class TestWireReplicaProperty:
    """A replica fed only by ``decode_message(encode_message(m))`` equals a
    fresh box query after every drained tick."""

    RADIUS = 15.0
    OBSERVERS = (0, 1, 2)  # 2 is the one ``destroy_observer`` removes
    CENTER = (50.0, 50.0)
    CAMERA = 7  # key of the observer row that lives in a table of its own

    @pytest.mark.parametrize("grid_index", [False, True], ids=["no-index", "grid-index"])
    @pytest.mark.parametrize("world_name", sorted(WIRE_WORLDS))
    @settings(max_examples=12, deadline=None)
    @given(ticks=st.lists(st.lists(_op, max_size=4), min_size=2, max_size=7))
    def test_replica_equals_fresh_box_query(self, world_name, grid_index, ticks):
        class_name, build, spawn_fields = WIRE_WORLDS[world_name]
        world = build()
        table = primary_table(world, class_name)
        if grid_index:
            world.catalog.create_index(table.name, "aoi_probe", GridIndex(["x", "y"], cell_size=7.0))
        camera = world.catalog.create_table(
            "camera",
            Schema([Column("cam", DataType.NUMBER, nullable=False)]
                   + [Column(c, DataType.NUMBER) for c in ("x", "y")]),
            key="cam",
        )
        camera.insert({"cam": self.CAMERA, "x": 20.0, "y": 80.0})
        manager = world.subscriptions
        # As many slots as subscriptions: one undrained flush fills the
        # outbox, the next one overflows it.
        session = manager.connect(outbox_capacity=len(self.OBSERVERS) + 2)
        # subscription id -> (observer table, observer key), None = fixed box
        centers = {
            manager.subscribe_aoi(session, class_name, radius=self.RADIUS, observer_id=k): (table, k)
            for k in self.OBSERVERS
        }
        centers[manager.subscribe_aoi(session, class_name, radius=self.RADIUS, center=self.CENTER)] = None
        centers[
            manager.subscribe_aoi(
                session, class_name, radius=self.RADIUS,
                observer_id=self.CAMERA, observer_table="camera",
            )
        ] = (camera, self.CAMERA)
        replicas = {sid: ResultSet() for sid in centers}

        def pump():
            fragments = {}
            for message in session.take():
                line = encode_message(message, fragments)
                replicas[message.subscription_id].apply(decode_message(line))

        def verify(context):
            for sid, observer in centers.items():
                center = self.CENTER
                if observer is not None:
                    row = observer[0].get_by_key(observer[1])
                    center = None if row is None else (row["x"], row["y"])
                expect = []
                if center is not None:
                    expect = [
                        dict(r)
                        for r in table.rows()
                        if center[0] - self.RADIUS <= r["x"] <= center[0] + self.RADIUS
                        and center[1] - self.RADIUS <= r["y"] <= center[1] + self.RADIUS
                    ]
                got = replicas[sid].rows()
                assert multiset(expect) == multiset(got), f"subscription {sid} diverged {context}"

        pump()
        verify("at subscribe")
        for tick, ops in enumerate(ticks):
            drain_this_tick = True
            for op in ops:
                bystanders = [
                    r["id"] for r in table.rows() if r["id"] not in self.OBSERVERS
                ]
                if op[0] == "spawn":
                    world.spawn(class_name, x=op[1], y=op[2], **spawn_fields)
                elif op[0] == "destroy" and len(bystanders) > 5:
                    world.destroy(class_name, bystanders[op[1] % len(bystanders)])
                elif op[0] == "teleport" and bystanders:
                    world.set_state(
                        class_name, bystanders[op[1] % len(bystanders)], x=op[2], y=op[3]
                    )
                elif op[0] == "destroy_observer" and table.get_by_key(self.OBSERVERS[-1]):
                    world.destroy(class_name, self.OBSERVERS[-1])
                elif op[0] == "move_camera" and camera.get_by_key(self.CAMERA):
                    camera.update(camera.rowid_for_key(self.CAMERA), {"x": op[1], "y": op[2]})
                elif op[0] == "toggle_camera":
                    if camera.get_by_key(self.CAMERA):
                        camera.delete(camera.rowid_for_key(self.CAMERA))
                    else:
                        camera.insert({"cam": self.CAMERA, "x": 60.0, "y": 40.0})
                elif op[0] == "skip_drain":
                    drain_this_tick = False
                elif op[0] == "lose_change_log":
                    table.restore(table.snapshot())
            world.tick()
            if drain_this_tick:
                pump()
                verify(f"at tick {tick} after {ops}")
        pump()
        verify("at the end")
        assert manager.last_flush_stats["aoi_candidate_rows"] < len(centers) * len(table)


# ------------------------------------------------------------------------------------
# tick-loop integration
# ------------------------------------------------------------------------------------


class TestTickIntegration:
    def test_worlds_without_subscribers_skip_the_flush_phase(self):
        world = build_rts_world(20, seed=5)
        world.tick()
        report = world.reports[-1]
        assert report.subscription_messages == 0
        assert not world.has_subscribers

    def test_flush_phase_reported_per_tick(self):
        world = build_rts_world(20, seed=5)
        manager = world.subscriptions
        session = manager.connect()
        manager.subscribe_table(session, "Unit")
        world.tick()
        report = world.reports[-1]
        assert world.has_subscribers
        assert report.subscription_messages >= 1
        assert report.subscription_delta_rows > 0  # physics moves every unit
        assert manager.current_tick == report.tick

    def test_manager_stats_shape(self):
        world = build_rts_world(20, seed=5)
        manager = world.subscriptions
        session = manager.connect()
        manager.subscribe_table(session, "Unit")
        manager.subscribe_aoi(session, "Unit", radius=10, center=(50, 50))
        world.tick()
        stats = manager.stats()
        assert stats["sessions"] == 1
        assert stats["subscriptions"] == 2
        assert stats["query_groups"] == 1
        assert stats["aoi_subscribers"] == 1
        assert stats["last_flush"]["groups"] == 1


# ------------------------------------------------------------------------------------
# the TCP/JSON-lines transport
# ------------------------------------------------------------------------------------


class TestServer:
    def test_end_to_end_stream_over_tcp(self):
        from repro.service.server import SubscriptionClient, SubscriptionServer

        async def scenario():
            world = build_rts_world(30, seed=5)
            server = SubscriptionServer(world)
            await server.start()
            client = SubscriptionClient(*server.address)
            await client.connect()
            sid = await client.subscribe_table("Unit", filter=[["player", "==", 1]])
            aid = await client.subscribe_aoi("Unit", radius=15, observer_id=2)
            for _ in range(4):
                await server.step()
            await client.pump()
            table = primary_table(world, "Unit")
            expect = [dict(r) for r in table.rows() if r["player"] == 1]
            assert multiset(expect) == multiset(client.rows(sid))
            observer = table.get_by_key(2)
            expect = aoi_expected(
                table, ("x", "y"), (observer["x"], observer["y"]), (15.0, 15.0)
            )
            assert multiset(expect) == multiset(client.rows(aid))
            await client.close()
            await server.stop()

        asyncio.run(scenario())

    def test_server_rejects_bad_requests_without_dying(self):
        from repro.service.server import SubscriptionServer

        async def scenario():
            world = build_rts_world(10, seed=5, with_physics=False)
            server = SubscriptionServer(world)
            await server.start()
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b'{"op": "no_such_op"}\n')
            await writer.drain()
            import json

            response = json.loads(await reader.readline())
            assert response["type"] == "error"
            # The connection (and server) survives and still serves.
            writer.write(b'{"op": "ping"}\n')
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["type"] == "pong"
            writer.close()
            await server.stop()

        asyncio.run(scenario())


def test_sgl_compiled_effect_query_as_standing_query():
    """A compiled SGL effect query's plan subscribes like any other —
    clients can watch exactly what a script computes (enemies_seen)."""
    world = build_rts_world(40, seed=5)
    query = world.compiled.script("count_neighbours").queries_by_segment[0][0]
    manager = world.subscriptions
    session = manager.connect()
    sid = manager.subscribe_query(session, query.plan)
    states = {sid: ResultSet()}
    drain(session, states)
    scratch = Executor(world.catalog, EngineConfig(use_incremental=False))
    for _ in range(4):
        world.tick()
        drain(session, states)
    expect = scratch.execute(query.plan, cache=False).rows
    assert multiset(expect) == multiset(states[sid].rows())


def test_spawned_units_reach_streams_without_ticking():
    """Flush can also be driven manually (no GameWorld tick required)."""
    catalog, table = build_bare_catalog(n=10)
    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    session = manager.connect()
    sid = manager.subscribe_table(session, "unit")
    states = {sid: ResultSet()}
    drain(session, states)
    table.insert({"id": 500, "player": 9, "x": 1, "y": 1})
    manager.flush()
    drain(session, states)
    assert multiset([dict(r) for r in table.rows()]) == multiset(states[sid].rows())


def test_unit_rows_generator_shape():
    rows = list(unit_rows(5))
    assert len(rows) == 5 and {"player", "x", "y"} <= set(rows[0])


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
