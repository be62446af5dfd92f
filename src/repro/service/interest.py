"""Spatial interest management: area-of-interest subscription routing.

An AOI subscription is the standing query "every row of table *T* whose
spatial columns lie inside an axis-aligned box" — the box either fixed, or
centered on an *observer* row (fog of war: a unit sees what is around it)
and moving with it.  Thousands of such subscriptions over one table is the
paper's "many concurrent players" workload, and re-running each box query
per tick is exactly the fan-out cost the service exists to avoid.

:class:`InterestManager` keeps, per (table, spatial columns), two uniform
cell grids of one cell size: one **over subscriptions** (which boxes cover
which cells) and one **over rows** (``cell → {key: row}``, the manager's
own copy of the table, built by one scan at the first subscribe).  A flush
costs what changed, not subscribers × table:

1. the table's change cursor is polled **once** and paired by key into
   (pre-image, new row) with the new row copied once (stored rows mutate
   in place).  That one copy is the object the row grid, every
   subscriber's ``current`` and every message share — read-only from here
   on (see :mod:`repro.service.protocol`);
2. the row grid is brought up to date from the change set, and each changed
   row is routed through the subscription grid: only subscriptions
   registered on its old or new cell re-check their exact box;
3. a subscription whose observer moved (an observer living in the watched
   table moved iff its key is in the change set) re-reads its box from the
   row grid — the union of the box's buckets, exact bounds re-checked —
   and diffs it against its cache by object identity.

A row entering a box is ``added``, a row leaving it ``removed``; a row that
stays costs one ``changed`` record (key + changed columns), built once per
changed row and shared by every subscriber holding it.

A lost cursor delta (change-log overflow or reset) rebuilds the row grid
and downgrades the flush to per-subscription resync snapshots — the same
snapshot-resync rule the query groups follow.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Mapping, Sequence

from repro.engine.errors import ExecutionError
from repro.engine.table import ChangeCursor, Table
from repro.service.protocol import Delta, Snapshot, SubscriptionMessage

__all__ = ["AOISubscription", "InterestManager", "FLUSH_COUNTERS"]

Cell = tuple[int, ...]
Row = dict[str, Any]
Bounds = tuple[tuple[float, float], ...]

DEFAULT_CELL_SIZE = 16.0

#: What ``InterestManager.last_stats`` counts per flush.
FLUSH_COUNTERS = (
    "routed_rows",  # changed rows routed through the grids
    "touched_subs",  # subscriptions a routed row produced a delta for
    "refetched_subs",  # subscriptions whose observer moved
    "resyncs",  # subscriptions re-anchored after a lost change-log delta
    "candidate_rows",  # rows bounds-checked by ``_fetch_box``
    "changed_records",  # in-place ``changed`` records emitted
)


class AOISubscription:
    """One area-of-interest subscription over a spatial table."""

    def __init__(
        self,
        subscription_id: int,
        session_id: int,
        dims: tuple[str, ...],
        radius: tuple[float, ...],
        center: tuple[float, ...] | None = None,
        observer_table: Table | None = None,
        observer_key: Any = None,
    ):
        self.subscription_id = subscription_id
        self.session_id = session_id
        self.dims = dims
        self.radius = radius
        #: Fixed box center; ``None`` for observer-following subscriptions.
        self.center = center
        self.observer_table = observer_table
        self.observer_key = observer_key
        #: Observer position at the last flush (``None`` = no/gone observer).
        self.observer_pos: tuple[float, ...] | None = None
        #: The current axis-aligned box, or ``None`` (empty result).
        self.bounds: Bounds | None = None
        #: Keyed result cache: row key → the (shared, read-only) row object
        #: the manager's row grid held when the subscriber last heard of it.
        self.current: dict[Any, Row] = {}
        #: Per dimension, the (lowest, highest) cell index the box covers,
        #: and the cells themselves (registered in the manager).
        self.span: tuple[tuple[int, int], ...] | None = None
        self.cells: set[Cell] = set()
        if center is not None:
            self._center_on(center)

    def _center_on(self, center: tuple[float, ...] | None) -> None:
        self.bounds = (
            None if center is None else tuple((c - r, c + r) for c, r in zip(center, self.radius))
        )

    def follow(self, position: tuple[float, ...] | None) -> bool:
        """Move the box to the observer's *position*; whether it moved."""
        if position == self.observer_pos:
            return False
        self.observer_pos = position
        self._center_on(position)
        return True

    def contains(self, row: Mapping[str, Any]) -> bool:
        if self.bounds is None:
            return False
        for dim, (low, high) in zip(self.dims, self.bounds):
            value = row.get(dim)
            if value is None or not (low <= value <= high):
                return False
        return True


class _Pending:
    """The delta one subscription accumulates while a flush routes rows."""

    __slots__ = ("added", "changed", "removed")

    def __init__(self) -> None:
        self.added: list[Row] = []
        self.changed: list[Row] = []
        self.removed: list[Row] = []


class InterestManager:
    """Routes one table's row changes to the AOI subscriptions they affect."""

    def __init__(self, table: Table, dims: Sequence[str], cell_size: float | None = None):
        if table.key is None:
            raise ExecutionError(
                f"AOI subscriptions need a keyed table; {table.name!r} has no key column"
            )
        self.table = table
        self.dims = tuple(table.schema.resolve(d) for d in dims)
        self.key_column = table.schema.resolve(table.key)
        self.cell_size = float(cell_size) if cell_size else DEFAULT_CELL_SIZE
        #: Subscription grid: cell → subscriptions whose box covers it.
        self._cells: dict[Cell, set[AOISubscription]] = {}
        #: Row grid: cell → {key: row}.  Rows with a NULL coordinate are in
        #: no cell (no box can contain them).
        self._rows: dict[Cell, dict[Any, Row]] = {}
        self._subs: dict[int, AOISubscription] = {}
        #: Observer key → subscriptions following that row of the watched
        #: table; subscriptions following a row of another table.
        self._followers: dict[Any, list[AOISubscription]] = {}
        self._foreign: list[AOISubscription] = []
        self._cursor: ChangeCursor | None = None
        #: Flush statistics (reset each flush; read by the manager).
        self.last_stats = dict.fromkeys(FLUSH_COUNTERS, 0)

    # -- subscription lifecycle -------------------------------------------------------

    def subscribe(self, sub: AOISubscription, tick: int) -> Snapshot:
        """Register *sub* and return its initial snapshot (current box rows).

        The row grid must mirror the table: the first subscriber builds it,
        and with subscribers present the caller flushes first (pending
        changes go to the current subscribers, then the newcomer reads).

        A subscribe that fails leaves nothing behind: a half-registered
        subscription would be flushed every tick and could never be removed.
        """
        observers = sub.observer_table
        if observers is not None and observers is not self.table:
            # The box is centered on the observer row's values of the
            # watched dims, read by name.
            missing = [dim for dim in self.dims if dim not in observers.schema.names]
            if missing:
                raise ExecutionError(
                    f"observer table {observers.name!r} has no column(s) {missing}: an AOI "
                    f"over {self.table.name!r} centers its box on the observer's {list(self.dims)}"
                )
        if self._cursor is None:
            self._cursor = self.table.open_cursor()
            self._build_row_grid()
        if observers is self.table:
            self._followers.setdefault(sub.observer_key, []).append(sub)
        elif observers is not None:
            self._foreign.append(sub)
        self._subs[sub.subscription_id] = sub
        try:
            return self._snapshot(sub, tick, "subscribe")
        except Exception:
            self.unsubscribe(sub.subscription_id)
            raise

    def unsubscribe(self, subscription_id: int) -> bool:
        sub = self._subs.pop(subscription_id, None)
        if sub is None:
            return False
        self._unregister(sub, sub.cells)
        if sub.observer_table is self.table:
            followers = self._followers[sub.observer_key]
            followers.remove(sub)
            if not followers:
                del self._followers[sub.observer_key]
        elif sub.observer_table is not None:
            self._foreign.remove(sub)
        if not self._subs:
            # Nobody is listening: a cursor left open would hand the next
            # subscriber a stale position, a grid left behind stale rows.
            self._cursor = None
            self._rows = {}
        return True

    def __len__(self) -> int:
        return len(self._subs)

    def subscription(self, subscription_id: int) -> AOISubscription | None:
        return self._subs.get(subscription_id)

    # -- geometry ---------------------------------------------------------------------

    def _cell_of(self, row: Mapping[str, Any]) -> Cell | None:
        size = self.cell_size
        try:
            return tuple([int(row[dim] // size) for dim in self.dims])
        except TypeError:  # a NULL coordinate: the row is in no cell
            return None

    def _position(self, row: Mapping[str, Any] | None) -> tuple[float, ...] | None:
        try:
            return None if row is None else tuple([float(row[dim]) for dim in self.dims])
        except (TypeError, ValueError):  # NULL / non-numeric: nowhere to center a box
            return None

    def _build_row_grid(self) -> None:
        """One table scan: the manager's own copy of every placeable row."""
        self._rows = grid = {}
        key_column = self.key_column
        for row in self.table.rows():
            cell = self._cell_of(row)
            if cell is not None:
                grid.setdefault(cell, {})[row[key_column]] = dict(row)

    def _unregister(self, sub: AOISubscription, cells: set[Cell]) -> None:
        for cell in cells:
            bucket = self._cells[cell]
            bucket.discard(sub)
            if not bucket:
                del self._cells[cell]

    def _fetch_box(self, sub: AOISubscription) -> dict[Any, Row]:
        """Register *sub*'s box on the subscription grid and read it off the
        row grid: the rows of the buckets it covers, exact bounds re-checked.

        The one probe path — snapshots, resyncs and moved observers alike.
        """
        bounds = sub.bounds
        size = self.cell_size
        span = (
            None
            if bounds is None
            else tuple((int(low // size), int(high // size)) for low, high in bounds)
        )
        if span != sub.span:
            cells = (
                set()
                if span is None
                else set(product(*(range(low, high + 1) for low, high in span)))
            )
            self._unregister(sub, sub.cells - cells)
            for cell in cells - sub.cells:
                self._cells.setdefault(cell, set()).add(sub)
            sub.span, sub.cells = span, cells
        if bounds is None:
            return {}
        grid = self._rows
        candidates: list[tuple[Any, Row]] = []
        for cell in sub.cells:
            bucket = grid.get(cell)
            if bucket is not None:
                candidates.extend(bucket.items())
        self.last_stats["candidate_rows"] += len(candidates)
        for dim, (low, high) in zip(self.dims, bounds):
            candidates = [(key, row) for key, row in candidates if low <= row[dim] <= high]
        return dict(candidates)

    def _snapshot(self, sub: AOISubscription, tick: int, reason: str) -> Snapshot:
        if sub.observer_table is not None:
            sub.follow(self._position(sub.observer_table.get_by_key(sub.observer_key)))
        sub.current = self._fetch_box(sub)
        return Snapshot(
            subscription_id=sub.subscription_id,
            tick=tick,
            rows=tuple(sub.current.values()),
            reason=reason,
            key=self.key_column,
        )

    # -- the flush phase --------------------------------------------------------------

    def flush(self, tick: int) -> list[SubscriptionMessage]:
        """Compute this tick's messages for every AOI subscription.

        Outbox-overflow recovery is not handled here: a refused delta is
        converted to a ``resync:outbox`` snapshot by the manager in the
        same flush, straight from the subscription's ``current`` cache.
        """
        stats = self.last_stats = dict.fromkeys(FLUSH_COUNTERS, 0)
        if not self._subs:
            return []
        assert self._cursor is not None
        polled = self._cursor.poll()
        if polled is None:
            # Lost delta: every stream re-anchors from a fresh snapshot.
            self._build_row_grid()
            stats["resyncs"] = len(self._subs)
            return [
                self._snapshot(sub, tick, "resync:change-log") for sub in self._subs.values()
            ]

        # One change set, one copy: ``key → (new row, old cell, new cell)``
        # with the row grid brought up to date on the way.
        key_column = self.key_column
        added, removed = polled
        gone = {row[key_column]: row for row in removed}
        changes: dict[Any, tuple[Row | None, Cell | None, Cell | None]] = {}
        for row in added:
            key = row[key_column]
            changes[key] = self._regrid(key, gone.pop(key, None), dict(row))
        for key, row in gone.items():
            changes[key] = self._regrid(key, row, None)
        stats["routed_rows"] = len(changes)

        # Observer moves first: their boxes are stale, so routing skips them
        # and they re-read their box from the (now current) row grid below.
        moved: dict[int, AOISubscription] = {}
        for key in self._followers.keys() & changes.keys():
            position = self._position(changes[key][0])
            for sub in self._followers[key]:
                if sub.follow(position):
                    moved[sub.subscription_id] = sub
        for sub in self._foreign:
            assert sub.observer_table is not None
            if sub.follow(self._position(sub.observer_table.get_by_key(sub.observer_key))):
                moved[sub.subscription_id] = sub

        records: dict[Any, Row] = {}

        def record_of(key: Any, old: Row, new: Row) -> Row:
            """The ``changed`` record of *key*, built once per changed row:
            every subscriber holding the key holds the same *old* object
            (the one the row grid held until this flush).  A value that
            changed type but compares equal (1 → 1.0) is a change: the
            replica must end up with the value the table holds."""
            record = records.get(key)
            if record is None:
                record = records[key] = {key_column: key}
                for column, value in new.items():
                    held = old.get(column)
                    if held != value or type(held) is not type(value):
                        record[column] = value
            return record

        pending: dict[int, _Pending] = {}
        if len(moved) < len(self._subs):
            cells = self._cells
            for key, (new, old_cell, new_cell) in changes.items():
                affected = cells.get(old_cell, ())
                if new_cell != old_cell and new_cell in cells:
                    affected = cells[new_cell].union(affected)
                for sub in affected:
                    if sub.subscription_id in moved:
                        continue
                    held = sub.current.get(key)
                    now_in = new is not None and sub.contains(new)
                    if held is None and not now_in:
                        continue
                    delta = pending.get(sub.subscription_id)
                    if delta is None:
                        delta = pending[sub.subscription_id] = _Pending()
                    if not now_in:
                        delta.removed.append(sub.current.pop(key))
                    elif held is None:
                        delta.added.append(new)
                        sub.current[key] = new
                    else:
                        delta.changed.append(record_of(key, held, new))
                        sub.current[key] = new
        stats["touched_subs"] = len(pending)

        # Moved observers: the new box read off the row grid, diffed against
        # the cached result.  Row objects are shared and replaced (never
        # mutated) on change, so identity tells an untouched row.
        stats["refetched_subs"] = len(moved)
        for sub in moved.values():
            fresh = self._fetch_box(sub)
            current = sub.current
            delta = pending[sub.subscription_id] = _Pending()
            for key, row in fresh.items():
                held = current.get(key)
                if held is None:
                    delta.added.append(row)
                elif held is not row:
                    delta.changed.append(record_of(key, held, row))
            if len(fresh) - len(delta.added) != len(current):
                delta.removed = [row for key, row in current.items() if key not in fresh]
            sub.current = fresh

        messages: list[SubscriptionMessage] = []
        for sub_id, delta in pending.items():
            if delta.added or delta.changed or delta.removed:
                stats["changed_records"] += len(delta.changed)
                messages.append(
                    Delta(
                        subscription_id=sub_id,
                        tick=tick,
                        added=tuple(delta.added),
                        removed=tuple(delta.removed),
                        changed=tuple(delta.changed),
                    )
                )
        return messages

    def _regrid(
        self, key: Any, pre_image: Row | None, new: Row | None
    ) -> tuple[Row | None, Cell | None, Cell | None]:
        """Move *key* from its pre-image's bucket of the row grid to *new*'s;
        returns ``(new, old cell, new cell)``."""
        grid = self._rows
        old_cell = None if pre_image is None else self._cell_of(pre_image)
        new_cell = None if new is None else self._cell_of(new)
        if old_cell != new_cell and old_cell is not None:
            bucket = grid[old_cell]
            del bucket[key]
            if not bucket:
                del grid[old_cell]
        if new_cell is not None:
            grid.setdefault(new_cell, {})[key] = new
        return new, old_cell, new_cell
