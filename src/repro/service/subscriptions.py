"""Standing-query subscriptions: compute deltas once, fan out to many.

The paper frames client views as queries over game state; serving "many
concurrent players" then becomes a query-processing problem.  The naive
serving strategy — re-run every client's query every tick — does O(clients)
query executions per tick.  This module does O(distinct queries) delta
computations instead:

* **Dedup.**  Clients registering *equivalent* standing queries (same
  canonical fingerprint, via :func:`repro.engine.optimizer.mqo.fingerprint_plan`
  — the PR-4 subplan fingerprints, so differently-named scan aliases still
  match) share one :class:`StandingQueryGroup`; its per-tick delta is
  computed once and fanned out, with positional alias renames applied per
  subscriber exactly like ``SharedScan`` consumers.

* **Delta sources.**  A group whose plan is a filter over one table
  (``Select*``/``TableScan``) streams straight off the table's change log
  (:meth:`Table.open_cursor`): the tick's net row changes are filtered by
  the standing predicate — no query execution at all.  Any other plan
  re-executes once per tick through the shared
  :class:`~repro.engine.executor.Executor` — served from a registered
  :class:`IncrementalView` when the planner could prove one correct — and
  the result is multiset-diffed against the previous tick's.

* **Resync.**  A lost change-log delta (capacity overflow, ``clear`` /
  ``restore`` / schema replacement) or an outbox overflow breaks a stream;
  the group re-anchors the affected subscribers with a fresh
  :class:`~repro.service.protocol.Snapshot` instead of a delta.

Area-of-interest subscriptions are routed through
:class:`~repro.service.interest.InterestManager` (one per table and
dimension set) and share the same session/outbox/flush machinery.

The manager attaches to :meth:`GameWorld.tick` via the world's
``subscriptions`` property: the tick loop calls :meth:`flush` at the end
of every tick (the *flush phase*, timed in ``TickReport.flush_seconds``).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from repro.engine.algebra import LogicalPlan, Select, TableScan
from repro.engine.catalog import Catalog
from repro.engine.errors import ExecutionError
from repro.engine.executor import Executor
from repro.engine.expressions import Expression
from repro.engine.operators.scan import _qualify_row
from repro.engine.optimizer.mqo import fingerprint_plan
from repro.engine.table import ChangeCursor, Table
from repro.persistence.replay import net_table_changes
from repro.service.interest import FLUSH_COUNTERS, AOISubscription, InterestManager
from repro.service.outbox import DEFAULT_CAPACITY, Session
from repro.service.protocol import (
    Delta,
    Snapshot,
    SubscriptionMessage,
    freeze_rows,
    row_key,
)

__all__ = ["StandingQueryGroup", "SubscriptionManager"]


def _zero_stats() -> dict[str, int]:
    """What one ``SubscriptionManager.flush`` counts."""
    return {
        "messages": 0,
        #: Rows and ``changed`` records (one each) the deltas carried.
        "delta_rows": 0,
        "snapshots": 0,
        "groups": 0,
        # The interest managers' per-flush counters, summed; they reach
        # ``TickReport`` under the same names.  ``aoi_candidate_rows``
        # against the rows delivered shows a probe scanning, not probing.
        **{f"aoi_{name}": 0 for name in FLUSH_COUNTERS},
    }


def _rename_row(row: Mapping[str, Any], renames: Mapping[str, str]) -> dict[str, Any]:
    out = {}
    for name, value in row.items():
        head, dot, tail = name.partition(".")
        if dot and head in renames:
            name = f"{renames[head]}.{tail}"
        out[name] = value
    return out


class _QuerySubscriber:
    """One subscription attached to a (possibly shared) query group."""

    __slots__ = ("subscription_id", "session_id", "renames")

    def __init__(self, subscription_id: int, session_id: int, renames: dict[str, str]):
        self.subscription_id = subscription_id
        self.session_id = session_id
        self.renames = renames


class StandingQueryGroup:
    """All subscribers of one canonical standing query.

    The group computes one signed row delta per tick and owns the delta
    source: a table change cursor for plain filter queries, a previous-
    result multiset for everything else.
    """

    def __init__(
        self,
        fingerprint: str,
        aliases: tuple[str, ...],
        plan: LogicalPlan,
        executor: Executor,
        catalog: Catalog,
    ):
        self.fingerprint = fingerprint
        self.aliases = aliases
        self.plan = plan
        self.executor = executor
        self.subscribers: dict[int, _QuerySubscriber] = {}
        #: Filter-over-one-table groups stream off the change log.
        self._cursor: ChangeCursor | None = None
        self._scan_alias: str | None = None
        self._predicates: tuple[Expression, ...] = ()
        #: Re-query groups diff against the previous result multiset.
        self._prev: dict[tuple, tuple[dict[str, Any], int]] = {}
        self.evaluations = 0
        self.lost_deltas = 0
        #: Whether teardown may release the plan's executor state.  A plan
        #: the executor already knew (cached or registered incremental —
        #: e.g. a client subscribing one of the world's own SGL effect
        #: queries) belongs to that earlier owner, not to this group.
        self.owns_plan = (
            id(plan) not in executor._cache and id(plan) not in executor._incremental
        )

        source = self._filter_chain(plan)
        if source is not None:
            table_name, alias, predicates = source
            table = catalog.table(table_name)
            self._cursor = table.open_cursor()
            self._scan_alias = alias
            self._predicates = predicates
        else:
            # Best effort: a provably delta-maintainable plan is refreshed
            # from table deltas instead of re-executed (the executor serves
            # the view transparently through ``execute``).
            executor.register_incremental(plan)
            self._reset_prev(self._execute())

    @property
    def cursor_mode(self) -> bool:
        return self._cursor is not None

    @staticmethod
    def _filter_chain(
        plan: LogicalPlan,
    ) -> tuple[str, str | None, tuple[Expression, ...]] | None:
        """Match ``Select*``/``TableScan`` — the shapes served cursor-only."""
        predicates: list[Expression] = []
        node = plan
        while isinstance(node, Select):
            predicates.append(node.predicate)
            node = node.child
        if isinstance(node, TableScan):
            return node.table_name, node.alias, tuple(predicates)
        return None

    # -- result materialization -------------------------------------------------------

    def _execute(self) -> list[dict[str, Any]]:
        self.evaluations += 1
        return self.executor.execute(self.plan).rows

    def result_rows(self) -> list[dict[str, Any]]:
        """The standing query's current result (canonical column names)."""
        if self.cursor_mode:
            return self._execute()
        return [dict(row) for row, count in self._prev.values() for _ in range(count)]

    def _reset_prev(self, rows: Iterable[Mapping[str, Any]]) -> None:
        self._prev = {}
        for row in rows:
            key = row_key(row)
            held = self._prev.get(key)
            self._prev[key] = (dict(row), held[1] + 1 if held else 1)

    # -- delta computation ------------------------------------------------------------

    def _qualify(self, row: Mapping[str, Any]) -> dict[str, Any]:
        # The scan operators' qualification rule: delta rows must spell
        # their columns exactly as the executed plan's snapshot rows do.
        return _qualify_row(row, self._scan_alias)

    def _matches(self, row: Mapping[str, Any]) -> bool:
        return all(bool(p.evaluate(row)) for p in self._predicates)

    def _filter_qualified(
        self, rows: Iterable[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        out = []
        for row in rows:
            qualified = self._qualify(row)
            if self._matches(qualified):
                out.append(qualified)
        return out

    def collect(
        self,
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]] | None:
        """This tick's ``(added, removed)`` delta, or ``None`` on a lost
        change-log delta (callers must resync every subscriber)."""
        if self._cursor is not None:
            changed = self._cursor.poll()
            if changed is None:
                self.lost_deltas += 1
                return None
            table_added, table_removed = changed
            return self._filter_qualified(table_added), self._filter_qualified(table_removed)
        current = self._execute()
        counts: dict[tuple, tuple[dict[str, Any], int]] = {}
        for row in current:
            key = row_key(row)
            held = counts.get(key)
            counts[key] = (row, held[1] + 1 if held else 1)
        added: list[dict[str, Any]] = []
        removed: list[dict[str, Any]] = []
        for key, (row, count) in counts.items():
            before = self._prev.get(key)
            delta = count - (before[1] if before else 0)
            if delta > 0:
                added.extend(dict(row) for _ in range(delta))
        for key, (row, count) in self._prev.items():
            after = counts.get(key)
            delta = count - (after[1] if after else 0)
            if delta > 0:
                removed.extend(dict(row) for _ in range(delta))
        self._prev = counts
        return added, removed


class SubscriptionManager:
    """Registers standing queries and streams per-tick deltas to sessions.

    Attach to a :class:`~repro.runtime.world.GameWorld` via its
    ``subscriptions`` property (the tick loop then calls :meth:`flush`
    automatically), or drive a bare catalog/executor pair directly (the
    benchmarks do) by calling :meth:`flush` after each round of mutations.
    """

    def __init__(
        self,
        world: Any = None,
        catalog: Catalog | None = None,
        executor: Executor | None = None,
        outbox_capacity: int = DEFAULT_CAPACITY,
    ):
        if world is not None:
            catalog = world.catalog
            executor = world.executor
        if catalog is None or executor is None:
            raise ExecutionError(
                "SubscriptionManager needs a world or an explicit catalog + executor"
            )
        self.world = world
        self.catalog = catalog
        self.executor = executor
        self.outbox_capacity = outbox_capacity
        self._sessions: dict[int, Session] = {}
        self._groups: dict[str, StandingQueryGroup] = {}
        self._interest: dict[tuple[str, tuple[str, ...]], InterestManager] = {}
        #: subscription id → ("query", group) | ("aoi", interest manager)
        self._subs: dict[int, tuple[str, Any]] = {}
        self._next_session_id = 0
        self._next_subscription_id = 0
        self.current_tick = -1
        self.last_flush_stats: dict[str, int] = {}
        #: Work done by the flushes a late subscribe runs between two
        #: ``flush()`` calls; the next ``flush()`` reports it with its own.
        self._carried_stats = _zero_stats()

    # -- sessions ---------------------------------------------------------------------

    def connect(self, name: str = "", outbox_capacity: int | None = None) -> Session:
        session = Session(
            self._next_session_id,
            name,
            outbox_capacity if outbox_capacity is not None else self.outbox_capacity,
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        return session

    def disconnect(self, session: Session) -> None:
        for sub_id in list(session.subscription_ids):
            self.unsubscribe(session, sub_id)
        session.closed = True
        self._sessions.pop(session.session_id, None)

    @property
    def sessions(self) -> list[Session]:
        return list(self._sessions.values())

    def subscription_count(self) -> int:
        return len(self._subs)

    # -- subscribing ------------------------------------------------------------------

    def _resolve_table(self, name: str) -> Table:
        """Accept either a table name or (with a world) an SGL class name,
        which resolves to the class's primary state table."""
        if self.world is not None and name in getattr(self.world, "schemas", {}):
            return self.catalog.table(self.world.schemas[name].primary_table)
        return self.catalog.table(name)

    def _register_query_subscriber(
        self, session: Session, plan: LogicalPlan
    ) -> tuple[_QuerySubscriber, StandingQueryGroup]:
        """Attach *session* to *plan*'s standing-query group (creating it if
        needed); pushes no message — callers choose snapshot or catch-up."""
        # cache=False: only the group's representative plan should occupy a
        # plan-cache slot — a deduped newcomer's plan object is never
        # executed again, and churning client connections would otherwise
        # grow the executor's id-keyed cache without bound.
        planned = self.executor.prepare(plan, cache=False)
        fingerprint, aliases = fingerprint_plan(planned.optimized)
        group = self._groups.get(fingerprint)
        if group is None:
            group = StandingQueryGroup(
                fingerprint, aliases, plan, self.executor, self.catalog
            )
            self._groups[fingerprint] = group
        else:
            # Align the group's delta source with "now" so the newcomer's
            # snapshot and the existing subscribers' streams agree: pending
            # changes are delivered to current subscribers first.
            self._flush_group(group, self.current_tick, self._carried_stats)
        renames = {
            rep: mine for rep, mine in zip(group.aliases, aliases) if rep != mine
        }
        sub = _QuerySubscriber(self._next_subscription_id, session.session_id, renames)
        self._next_subscription_id += 1
        group.subscribers[sub.subscription_id] = sub
        self._subs[sub.subscription_id] = ("query", group)
        session.subscription_ids.add(sub.subscription_id)
        return sub, group

    def subscribe_query(self, session: Session, plan: LogicalPlan) -> int:
        """Register *plan* as a standing query; returns the subscription id.

        Equivalent plans (equal canonical fingerprints) join the same
        group: the per-tick delta is computed once regardless of how many
        sessions subscribe it.
        """
        sub, group = self._register_query_subscriber(session, plan)
        rows = group.result_rows()
        if sub.renames:
            rows = [_rename_row(r, sub.renames) for r in rows]
        session.outbox.push(
            Snapshot(
                subscription_id=sub.subscription_id,
                tick=self.current_tick,
                rows=freeze_rows(rows),
            )
        )
        return sub.subscription_id

    def subscribe_table(
        self,
        session: Session,
        table: str,
        predicate: Expression | None = None,
    ) -> int:
        """Subscribe to a table (or SGL class) scan with an optional filter."""
        resolved = self._resolve_table(table)
        plan: LogicalPlan = TableScan(resolved.name)
        if predicate is not None:
            plan = Select(plan, predicate)
        return self.subscribe_query(session, plan)

    # -- log-offset catch-up (restarted nodes) ----------------------------------------

    @staticmethod
    def _table_position_stale(wal: Any, table: Table) -> bool:
        """Whether *table* has mutations *wal* has not committed yet.

        Catch-up promises "apply this delta and you are current"; if the
        table drifted past the last commit record the promise would be
        broken, so the caller must fall back to a snapshot.
        """
        position = wal._positions.get(table.name)
        if position is None:
            return False  # not a state table: the log holds no record of it
        epoch, version = position
        return table.log_epoch != epoch or table.version != version

    def resume_table_subscription(
        self,
        session: Session,
        table: str,
        predicate: Expression | None = None,
        last_seen_tick: int = -1,
    ) -> int:
        """Re-subscribe a returning client without a full snapshot.

        The restarted-node path: a client that was streaming a table
        subscription before the node went down reconnects and presents the
        last tick it fully applied.  When the delta log still holds every
        commit after that tick (and matches the table's current state), the
        client receives one netted catch-up :class:`Delta` — typically a
        few rows instead of the whole result — and the stream continues as
        usual.  When the log cannot serve the range (the offset was trimmed
        away, a full-table fallback record hides pre-images, or the table
        drifted past the last commit) the client is re-anchored with a
        :class:`Snapshot` carrying reason ``"resync:offset-too-old"``.  With
        no WAL attached to the world (never, or detached since) the
        snapshot's reason is ``"subscribe"``.
        """
        resolved = self._resolve_table(table)
        plan: LogicalPlan = TableScan(resolved.name)
        if predicate is not None:
            plan = Select(plan, predicate)
        sub, group = self._register_query_subscriber(session, plan)
        wal = getattr(self.world, "wal", None)
        log = wal.log if wal is not None else None
        catchup = None
        if log is not None and not self._table_position_stale(wal, resolved):
            catchup = net_table_changes(log, resolved.name, last_seen_tick)
        if catchup is None:
            rows = group.result_rows()
            if sub.renames:
                rows = [_rename_row(r, sub.renames) for r in rows]
            session.outbox.push(
                Snapshot(
                    subscription_id=sub.subscription_id,
                    tick=self.current_tick,
                    rows=freeze_rows(rows),
                    reason="resync:offset-too-old" if log is not None else "subscribe",
                )
            )
            return sub.subscription_id
        added, removed = catchup
        added = group._filter_qualified(added)
        removed = group._filter_qualified(removed)
        if sub.renames:
            added = [_rename_row(r, sub.renames) for r in added]
            removed = [_rename_row(r, sub.renames) for r in removed]
        catchup_tick = log.last_tick if log.last_tick is not None else self.current_tick
        session.outbox.push(
            Delta(
                subscription_id=sub.subscription_id,
                tick=catchup_tick,
                added=freeze_rows(added),
                removed=freeze_rows(removed),
            )
        )
        return sub.subscription_id

    def subscribe_aoi(
        self,
        session: Session,
        table: str,
        radius: float | Sequence[float],
        dims: Sequence[str] = ("x", "y"),
        center: Sequence[float] | None = None,
        observer_id: Any = None,
        observer_table: str | None = None,
        cell_size: float | None = None,
    ) -> int:
        """Subscribe to the rows inside an axis-aligned area of interest.

        Either ``center`` fixes the box, or ``observer_id`` names a row (of
        ``observer_table``, default the watched table itself) whose
        position the box follows — the fog-of-war shape.  ``radius`` is the
        half-extent per dimension (a scalar applies to every dimension).
        """
        if (center is None) == (observer_id is None):
            raise ExecutionError("subscribe_aoi needs exactly one of center / observer_id")
        resolved = self._resolve_table(table)
        dims_tuple = tuple(resolved.schema.resolve(d) for d in dims)
        radii = (
            tuple(float(r) for r in radius)
            if isinstance(radius, (tuple, list))
            else tuple(float(radius) for _ in dims_tuple)
        )
        if len(radii) != len(dims_tuple):
            raise ExecutionError("radius must be scalar or one value per dimension")
        key = (resolved.name, dims_tuple)
        manager = self._interest.get(key)
        if manager is None:
            manager = InterestManager(resolved, dims_tuple, cell_size)
        else:
            # Same alignment rule as the query groups: pending changes go
            # to the current subscribers first, so the newcomer's snapshot
            # and their streams agree on "now".
            self._flush_interest(manager, self.current_tick, self._carried_stats)
        sub = AOISubscription(
            subscription_id=self._next_subscription_id,
            session_id=session.session_id,
            dims=dims_tuple,
            radius=radii,
            center=tuple(float(c) for c in center) if center is not None else None,
            observer_table=(
                self._resolve_table(observer_table) if observer_table else resolved
            )
            if observer_id is not None
            else None,
            observer_key=observer_id,
        )
        self._next_subscription_id += 1
        # Raises before anything is registered (e.g. an observer table
        # without the watched dims); only a manager with a subscriber is kept.
        snapshot = manager.subscribe(sub, self.current_tick)
        self._interest[key] = manager
        self._subs[sub.subscription_id] = ("aoi", manager)
        session.subscription_ids.add(sub.subscription_id)
        session.outbox.push(snapshot)
        return sub.subscription_id

    def unsubscribe(self, session: Session, subscription_id: int) -> bool:
        record = self._subs.pop(subscription_id, None)
        session.subscription_ids.discard(subscription_id)
        if record is None:
            return False
        kind, owner = record
        if kind == "query":
            owner.subscribers.pop(subscription_id, None)
            if not owner.subscribers:
                self._groups.pop(owner.fingerprint, None)
                # Release the executor state the group accumulated (cached
                # plan, incremental view) — churning subscribers must not
                # grow the executor monotonically.  Plans the executor knew
                # before the group existed stay: they belong to the world.
                if owner.owns_plan:
                    self.executor.release_plan(owner.plan)
        else:
            owner.unsubscribe(subscription_id)
            if not len(owner):
                # The manager let go of its cursor and row grid; the next
                # subscriber starts a fresh one.
                del self._interest[(owner.table.name, owner.dims)]
        return True

    # -- the flush phase --------------------------------------------------------------

    def flush(self, tick: int | None = None) -> dict[str, int]:
        """Compute every group's delta once, fan out to session outboxes.

        Called by ``GameWorld.tick`` after the update and reactive steps
        (so streams reflect post-tick state); standalone users call it
        after each round of table mutations.  Returns flush statistics
        (also kept in :attr:`last_flush_stats`).
        """
        if tick is None:
            tick = self.current_tick + 1
        self.current_tick = tick
        stats, self._carried_stats = self._carried_stats, _zero_stats()
        for group in list(self._groups.values()):
            if not group.subscribers:
                continue
            stats["groups"] += 1
            self._flush_group(group, tick, stats)

        for manager in self._interest.values():
            self._flush_interest(manager, tick, stats)
        self.last_flush_stats = stats
        return stats

    def _flush_interest(self, manager: InterestManager, tick: int, stats: dict[str, int]) -> None:
        for message in manager.flush(tick):
            self._push(message, stats)
        for name in FLUSH_COUNTERS:
            stats[f"aoi_{name}"] += manager.last_stats[name]

    def _flush_group(
        self,
        group: StandingQueryGroup,
        tick: int,
        stats: dict[str, int],
    ) -> None:
        delta = group.collect()
        if delta is None:
            # Lost change-log delta: snapshot-resync every subscriber.
            rows = group.result_rows()
            for sub in group.subscribers.values():
                out = [_rename_row(r, sub.renames) for r in rows] if sub.renames else rows
                self._push(
                    Snapshot(
                        subscription_id=sub.subscription_id,
                        tick=tick,
                        rows=freeze_rows(out),
                        reason="resync:change-log",
                    ),
                    stats,
                )
            return
        added, removed = delta
        if not added and not removed:
            return
        snapshot_cache: list[list[dict[str, Any]]] = []

        def current_rows(sub: _QuerySubscriber) -> list[dict[str, Any]]:
            if not snapshot_cache:
                snapshot_cache.append(group.result_rows())
            rows = snapshot_cache[0]
            return [_rename_row(r, sub.renames) for r in rows] if sub.renames else rows

        # Freeze the shared delta once: Delta is immutable and every
        # consumer copies rows on apply, so all no-rename subscribers can
        # share the same tuples — the fan-out hot path must not pay
        # O(subscribers x rows) copies.
        frozen_added = freeze_rows(added)
        frozen_removed = freeze_rows(removed)
        for sub in group.subscribers.values():
            if sub.renames:
                message = Delta(
                    subscription_id=sub.subscription_id,
                    tick=tick,
                    added=tuple(_rename_row(r, sub.renames) for r in added),
                    removed=tuple(_rename_row(r, sub.renames) for r in removed),
                )
            else:
                message = Delta(
                    subscription_id=sub.subscription_id,
                    tick=tick,
                    added=frozen_added,
                    removed=frozen_removed,
                )
            self._push(message, stats, lambda sub=sub: current_rows(sub))

    def _push(
        self,
        message: SubscriptionMessage,
        stats: dict[str, int],
        resync_rows: Any = None,
    ) -> None:
        """Deliver *message* to its session's outbox.

        When a delta is refused (outbox overflow — the stream just broke),
        the resync happens *in the same flush*: ``resync_rows()`` supplies
        the subscription's current result and a snapshot is pushed in the
        delta's place (snapshots are always admitted and supersede the
        subscription's buffered messages), so even a chronically slow
        consumer finds current state whenever it drains, never a stale box.
        """
        record = self._subs.get(message.subscription_id)
        session = None
        aoi = None
        if record is not None:
            kind, owner = record
            if kind == "query":
                sub = owner.subscribers.get(message.subscription_id)
                session = self._sessions.get(sub.session_id) if sub else None
            else:
                aoi = owner.subscription(message.subscription_id)
                session = self._sessions.get(aoi.session_id) if aoi else None
        if session is None:
            return
        delivered = session.outbox.push(message)
        if not delivered and isinstance(message, Delta):
            if aoi is not None:
                # The subscriber's cache holds shared read-only rows.
                message = Snapshot(
                    subscription_id=message.subscription_id,
                    tick=message.tick,
                    rows=tuple(aoi.current.values()),
                    reason="resync:outbox",
                    key=owner.key_column,
                )
            elif resync_rows is not None:
                message = Snapshot(
                    subscription_id=message.subscription_id,
                    tick=message.tick,
                    rows=freeze_rows(resync_rows()),
                    reason="resync:outbox",
                )
            if isinstance(message, Snapshot):
                session.outbox.push(message)
                delivered = True
        if delivered:
            stats["messages"] += 1
            if isinstance(message, Snapshot):
                stats["snapshots"] += 1
            else:
                stats["delta_rows"] += len(message)

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Manager-level shape: groups, dedup factor, AOI managers, sessions."""
        group_subs = sum(len(g.subscribers) for g in self._groups.values())
        return {
            "sessions": len(self._sessions),
            "subscriptions": len(self._subs),
            "query_groups": len(self._groups),
            "query_subscribers": group_subs,
            "dedup_factor": round(group_subs / len(self._groups), 2) if self._groups else 0.0,
            "aoi_managers": len(self._interest),
            "aoi_subscribers": sum(len(m) for m in self._interest.values()),
            "last_flush": dict(self.last_flush_stats),
        }
