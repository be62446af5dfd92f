"""Memory-resident tables with index maintenance and tick snapshots.

Tables are the engine's storage layer.  Each table stores rows as plain
dicts keyed by an engine-assigned *row id*; secondary indexes register with
the table and are kept consistent on every insert, update and delete.

Three features exist specifically for the state-effect execution model of
the paper (Section 2):

* :meth:`Table.freeze` / :meth:`Table.thaw` — during the query and effect
  steps of a tick the state tables are read-only; the tick engine freezes
  them and any attempted mutation raises :class:`ExecutionError`.
* :meth:`Table.snapshot` / :meth:`Table.restore` — cheap copy-on-demand
  snapshots used by the debugger's resumable checkpoints (Section 3.3) and
  by the transaction engine when it needs to evaluate candidate subsets of
  atomic actions (Section 3.1).
* :meth:`Table.enable_change_log` / :meth:`Table.changes_since` — a bounded
  per-mutation change log that lets the incremental execution path
  (:mod:`repro.engine.operators.incremental`) maintain materialized query
  results from per-tick deltas instead of re-scanning the table.
"""

from __future__ import annotations

import itertools
import secrets
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.engine.errors import CatalogError, ExecutionError, SchemaError
from repro.engine.schema import Schema
from repro.engine.types import coerce_value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.batch import ColumnBatch

__all__ = ["Table", "TableIndex", "ChangeCursor", "RowId"]

RowId = int

#: Sentinel marking "row did not exist before this log entry" (an insert).
_NOT_PRESENT = object()

#: Change-log epoch tokens.  An epoch names one contiguous stretch of a
#: table's change-log history: it changes whenever the log is reset (bulk
#: rewrite) and is unique across processes, so a serialized cursor position
#: ``(epoch, version)`` from before a restart — or from a different table
#: instance replayed from a WAL — can never silently alias a position in
#: this instance's history just because the integer versions happen to
#: overlap.  A random 64-bit base plus a process-local counter keeps tokens
#: unique even when many tables reset within one process.
_EPOCH_BASE = secrets.randbits(64)
_EPOCH_COUNTER = itertools.count()


def _new_epoch() -> int:
    return _EPOCH_BASE ^ (next(_EPOCH_COUNTER) << 64)


class Table:
    """A named, schema-validated, memory-resident relation."""

    def __init__(self, name: str, schema: Schema, key: str | None = None):
        self.name = name
        self._schema = schema
        self.key = key
        if key is not None and key not in schema:
            raise SchemaError(f"key column {key!r} not in schema of table {name!r}")
        self._rows: dict[RowId, dict[str, Any]] = {}
        self._next_rowid: RowId = 0
        self._key_map: dict[Any, RowId] = {}
        self._indexes: dict[str, "TableIndex"] = {}
        self._frozen = False
        self._version = 0
        self._batch_cache: "tuple[int, ColumnBatch] | None" = None
        self._positions_cache: tuple[int, dict[RowId, int]] | None = None
        # Change log for incremental execution: entries are
        # ``(version, rowid, old)`` where ``old`` is the row *before* the
        # mutation (a copy) or ``_NOT_PRESENT`` for inserts.  ``None`` until
        # a consumer calls :meth:`enable_change_log`.
        self._change_log: "deque[tuple[int, RowId, Any]] | None" = None
        self._change_log_capacity = 0
        #: Oldest version a delta can be served from; ``changes_since`` with
        #: an older base version returns ``None`` (caller must rescan).
        self._log_floor = 0
        #: Identity of the current change-log history stretch (see
        #: :func:`_new_epoch`); consumers that persist positions must store
        #: ``(log_epoch, version)`` pairs, never bare versions.
        self._log_epoch = _new_epoch()

    # -- introspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self._rows)})"

    @property
    def version(self) -> int:
        """A counter bumped on every mutation; used for plan-cache invalidation."""
        return self._version

    @property
    def schema(self) -> Schema:
        return self._schema

    @schema.setter
    def schema(self, new_schema: Schema) -> None:
        """Replace the table's schema (a schema-altering operation).

        Subject to :meth:`freeze` like any other mutation.  Bumps the
        version and drops the columnar snapshot so :meth:`to_batch` can
        never serve a stale column list, and resets the change log (a delta
        computed across a schema change would mix row shapes).
        """
        if new_schema is self._schema:
            return
        self._check_writable()
        self._schema = new_schema
        self._version += 1
        self._batch_cache = None
        self._reset_change_log()

    @property
    def frozen(self) -> bool:
        return self._frozen

    def row_ids(self) -> Iterator[RowId]:
        return iter(self._rows.keys())

    def rows(self) -> Iterator[dict[str, Any]]:
        """Iterate over the *stored* row dicts — shared references.

        Callers must treat the yielded dicts as read-only: mutating one
        corrupts the table behind the indexes' back.  This is the fast path
        used by read-only consumers (the index advisor's grid sizing,
        :meth:`to_batch`, and the scan operators, which copy each row
        themselves before handing it downstream — see
        :mod:`repro.engine.operators.scan` for the per-operator copy
        contract).  Use :meth:`scan` when the consumer needs rows it may
        mutate.
        """
        return iter(self._rows.values())

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over *copies* of the rows, safe for downstream mutation.

        Each yielded dict is freshly allocated and owned by the caller; the
        table cannot be corrupted through it.  Prefer :meth:`rows` when the
        consumer is read-only — copying here and again downstream is the
        exact per-row cost the columnar batch path exists to avoid.
        """
        for row in self._rows.values():
            yield dict(row)

    def to_batch(self) -> "ColumnBatch":
        """Return the table contents as a :class:`~repro.engine.batch.ColumnBatch`.

        The batch stores one Python list per column (values copied out of
        the row dicts, so downstream operators can never corrupt the table)
        and is cached per :attr:`version`: during the query and effect steps
        of a tick the state tables are frozen, so every query of the tick —
        and every operator within a query — shares one columnar snapshot
        instead of materializing a dict per row per operator.
        """
        from repro.engine.batch import ColumnBatch

        if self._batch_cache is not None and self._batch_cache[0] == self._version:
            return self._batch_cache[1]
        batch = ColumnBatch.from_rows(self.schema.names, self._rows.values())
        self._batch_cache = (self._version, batch)
        return batch

    def batch_positions(self) -> dict[RowId, int]:
        """Row id → physical position in the current :meth:`to_batch` snapshot.

        What lets a columnar consumer follow an index (which speaks row
        ids) into the snapshot's column lists.  Cached per :attr:`version`
        like the snapshot itself.
        """
        cached = self._positions_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        positions = dict(zip(self._rows, range(len(self._rows))))
        self._positions_cache = (self._version, positions)
        return positions

    def get(self, rowid: RowId) -> dict[str, Any]:
        """Return the row stored under *rowid* — a shared, read-only reference.

        Mutating the returned dict bypasses the version counter, so indexes,
        the change log and the columnar snapshot (:meth:`to_batch`) would
        all go stale; use :meth:`update` to change a row.
        """
        try:
            return self._rows[rowid]
        except KeyError:
            raise ExecutionError(f"table {self.name!r} has no row id {rowid}") from None

    def get_by_key(self, key_value: Any) -> dict[str, Any] | None:
        """Return the row whose key column equals *key_value*, if any.

        A shared, read-only reference, like :meth:`get` — mutate via
        :meth:`update` / :meth:`update_by_key` only.
        """
        if self.key is None:
            raise ExecutionError(f"table {self.name!r} has no key column")
        rowid = self._key_map.get(key_value)
        return None if rowid is None else self._rows[rowid]

    def rowid_for_key(self, key_value: Any) -> RowId | None:
        if self.key is None:
            raise ExecutionError(f"table {self.name!r} has no key column")
        return self._key_map.get(key_value)

    # -- change log (incremental execution) ----------------------------------------

    def enable_change_log(self, capacity: int | None = None) -> None:
        """Start recording per-mutation deltas for :meth:`changes_since`.

        ``capacity`` bounds the log (oldest entries are dropped and the
        serviceable floor advances); the default is generous enough to cover
        one tick of full-table churn.  Enabling is idempotent; a repeated
        call may only grow the capacity, never shrink it.
        """
        wanted = capacity if capacity is not None else max(4096, 4 * len(self._rows))
        if self._change_log is None:
            self._change_log = deque()
            self._change_log_capacity = wanted
            self._log_floor = self._version
        elif wanted > self._change_log_capacity:
            self._change_log_capacity = wanted

    @property
    def change_log_enabled(self) -> bool:
        return self._change_log is not None

    def _log_change(self, rowid: RowId, old: Any) -> None:
        log = self._change_log
        if log is None:
            return
        log.append((self._version, rowid, old))
        if len(log) > self._change_log_capacity:
            dropped_version, _, _ = log.popleft()
            self._log_floor = dropped_version

    def _reset_change_log(self) -> None:
        """Discard the log after a bulk rewrite (clear/restore/schema change).

        The floor moves to the current version, so deltas based on any older
        version report "unavailable" and consumers fall back to a full scan.
        The epoch changes too: positions recorded before the reset name a
        different history and must never be served again, even by another
        table instance whose version counter happens to line up (the WAL
        replay-after-restart case).
        """
        self._log_epoch = _new_epoch()
        if self._change_log is not None:
            self._change_log.clear()
            self._log_floor = self._version

    @property
    def log_epoch(self) -> int:
        """Identity token of the current change-log history stretch.

        Serializable consumers (the WAL writer, restartable subscription
        nodes) must pair it with :attr:`version`; :meth:`changes_since` and
        :meth:`consolidate_changes` refuse positions from another epoch.
        """
        return self._log_epoch

    def _first_old_since(self, version: int) -> dict[RowId, Any] | None:
        """Per-rowid pre-image as of *version*, or ``None`` if unserviceable.

        The shared consolidation core of :meth:`changes_since` and
        :meth:`consolidate_changes`: the *first* log entry for a rowid in
        the suffix newer than *version* holds its state at *version*
        (:data:`_NOT_PRESENT` for rows that did not exist); the current
        state comes from the live row store.
        """
        if self._change_log is None or version < self._log_floor or version > self._version:
            return None
        suffix: list[tuple[int, RowId, Any]] = []
        for entry in reversed(self._change_log):
            if entry[0] <= version:
                break
            suffix.append(entry)
        suffix.reverse()
        first_old: dict[RowId, Any] = {}
        for _, rowid, old in suffix:
            if rowid not in first_old:
                first_old[rowid] = old
        return first_old

    def changes_since(
        self, version: int, epoch: int | None = None
    ) -> tuple[list[dict[str, Any]], list[dict[str, Any]]] | None:
        """Net row changes between *version* and now, or ``None`` if unknown.

        Returns ``(added, removed)``: rows present now but not at *version*,
        and rows present at *version* but gone (or changed) now — an updated
        row appears in both lists (old values in ``removed``, new values in
        ``added``).  ``added`` entries are shared references to the stored
        rows and must be treated as read-only; ``removed`` entries are the
        retained pre-mutation copies.

        ``None`` means the log cannot answer (logging disabled, the log was
        truncated past *version*, a bulk rewrite happened, or *epoch* — when
        given — names a different log history); the caller must fall back to
        a full rescan.  In-process consumers holding a live reference may
        omit *epoch* (resets already advance the floor); consumers that
        serialize positions must pass the paired :attr:`log_epoch`.
        """
        if epoch is not None and epoch != self._log_epoch:
            return None
        if version == self._version:
            return [], []
        first_old = self._first_old_since(version)
        if first_old is None:
            return None
        added: list[dict[str, Any]] = []
        removed: list[dict[str, Any]] = []
        for rowid, old in first_old.items():
            current = self._rows.get(rowid)
            if old is not _NOT_PRESENT:
                if old == current:
                    # No-op update (same values written back): not a change.
                    continue
                removed.append(old)
            if current is not None:
                added.append(current)
        return added, removed

    def consolidate_changes(
        self, version: int, epoch: int | None = None
    ) -> list[tuple[RowId, dict[str, Any] | None, dict[str, Any] | None]] | None:
        """Netted per-row changes since *version*, keyed by rowid.

        The write-ahead-log form of :meth:`changes_since`: one
        ``(rowid, old, new)`` triple per changed row — ``old`` is ``None``
        for an insert, ``new`` is ``None`` for a delete, both are present
        for an update, and a no-op (same values written back, or an
        insert-then-delete) nets away entirely.  Both row dicts are fresh
        copies owned by the caller, ready to serialize.

        Returns ``None`` under exactly the :meth:`changes_since` conditions
        (log disabled/truncated/reset, or an *epoch* mismatch); the WAL
        writer then falls back to recording the full table.
        """
        if epoch is not None and epoch != self._log_epoch:
            return None
        if version == self._version:
            return []
        first_old = self._first_old_since(version)
        if first_old is None:
            return None
        out: list[tuple[RowId, dict[str, Any] | None, dict[str, Any] | None]] = []
        for rowid, old in first_old.items():
            current = self._rows.get(rowid)
            old_row = None if old is _NOT_PRESENT else old
            if old_row == current:
                continue
            out.append(
                (rowid, dict(old_row) if old_row else None, dict(current) if current else None)
            )
        return out

    def open_cursor(self, capacity: int | None = None) -> "ChangeCursor":
        """Register a change-log consumer positioned at the current version.

        Enables the change log if necessary (growing its capacity when
        *capacity* asks for more; see :meth:`enable_change_log`) and returns
        a :class:`ChangeCursor` whose :meth:`ChangeCursor.poll` serves the
        net deltas accumulated since its last poll.  Cursors are
        independent: each tracks its own base version over the one shared
        log, so any number of consumers (subscription groups, interest
        managers, tooling) can stream the same table.

        An already-enabled log keeps its configured capacity unless
        *capacity* explicitly asks for more — opening a cursor must not
        silently override an operator's bound.
        """
        if not self.change_log_enabled or capacity is not None:
            self.enable_change_log(capacity)
        return ChangeCursor(self)

    def changes_pending(self, version: int) -> int | None:
        """Number of logged mutations newer than *version*, or ``None``.

        A cheap probe of the log's serviceability (tests and tooling; the
        incremental view itself decides churn from the *netted*
        :meth:`changes_since` result, which this count upper-bounds).
        """
        if version == self._version:
            return 0
        if self._change_log is None or version < self._log_floor or version > self._version:
            return None
        count = 0
        for entry in reversed(self._change_log):
            if entry[0] <= version:
                break
            count += 1
        return count

    # -- mutation -----------------------------------------------------------------

    def _check_writable(self) -> None:
        if self._frozen:
            raise ExecutionError(
                f"table {self.name!r} is frozen (state tables are read-only during "
                "the query and effect steps of a tick)"
            )

    def insert(self, values: Mapping[str, Any]) -> RowId:
        """Insert a row built from *values* (defaults filled in); return its id."""
        self._check_writable()
        row = self.schema.new_row(values)
        if self.key is not None:
            key_value = row[self.schema.resolve(self.key)]
            if key_value in self._key_map:
                raise ExecutionError(
                    f"duplicate key {key_value!r} in table {self.name!r}"
                )
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        if self.key is not None:
            self._key_map[row[self.schema.resolve(self.key)]] = rowid
        for index in self._indexes.values():
            index.on_insert(rowid, row)
        self._version += 1
        self._log_change(rowid, _NOT_PRESENT)
        return rowid

    def insert_many(self, rows: Iterable[Mapping[str, Any]]) -> list[RowId]:
        """Insert many rows; returns their row ids in order."""
        return [self.insert(r) for r in rows]

    def update(self, rowid: RowId, changes: Mapping[str, Any]) -> None:
        """Apply *changes* (column → new value) to the row *rowid*.

        A write that leaves every value equal and of the same type is not
        a write: no copy, no version bump, no index notification and no
        change-log entry.  ``1 → 1.0`` still writes.
        """
        self._check_writable()
        row = self.get(rowid)
        # Resolve and coerce every value before touching the row: an
        # unknown column or a bad value must not leave it half-written.
        coerced = []
        for name, value in changes.items():
            column = self.schema.column(name)
            coerced.append((column.name, coerce_value(column.dtype, value)))
        if all(
            type(value) is type(row[name]) and value == row[name] for name, value in coerced
        ):
            return
        old = dict(row)
        for name, value in coerced:
            row[name] = value
        if self.key is not None:
            key_col = self.schema.resolve(self.key)
            if old[key_col] != row[key_col]:
                if row[key_col] in self._key_map:
                    row.update(old)
                    raise ExecutionError(
                        f"duplicate key {row[key_col]!r} in table {self.name!r}"
                    )
                del self._key_map[old[key_col]]
                self._key_map[row[key_col]] = rowid
        for index in self._indexes.values():
            index.on_update(rowid, old, row)
        self._version += 1
        self._log_change(rowid, old)

    def update_by_key(self, key_value: Any, changes: Mapping[str, Any]) -> None:
        rowid = self.rowid_for_key(key_value)
        if rowid is None:
            raise ExecutionError(f"no row with key {key_value!r} in table {self.name!r}")
        self.update(rowid, changes)

    def delete(self, rowid: RowId) -> None:
        """Remove the row *rowid*."""
        self._check_writable()
        row = self.get(rowid)
        del self._rows[rowid]
        if self.key is not None:
            key_col = self.schema.resolve(self.key)
            self._key_map.pop(row[key_col], None)
        for index in self._indexes.values():
            index.on_delete(rowid, row)
        self._version += 1
        self._log_change(rowid, row)

    def delete_where(self, predicate: Callable[[Mapping[str, Any]], bool]) -> int:
        """Delete all rows matching *predicate*; return how many were removed.

        The predicate receives the stored row dicts (shared references, as
        with :meth:`rows`) and must not mutate them.
        """
        doomed = [rid for rid, row in self._rows.items() if predicate(row)]
        for rid in doomed:
            self.delete(rid)
        return len(doomed)

    def clear(self) -> None:
        """Remove every row (indexes are rebuilt empty)."""
        self._check_writable()
        self._rows.clear()
        self._key_map.clear()
        for index in self._indexes.values():
            index.rebuild(self)
        self._version += 1
        self._reset_change_log()

    @property
    def next_rowid(self) -> RowId:
        """The rowid the next insert will be assigned (WAL bookkeeping)."""
        return self._next_rowid

    def set_next_rowid(self, next_rowid: RowId) -> None:
        """Restore the rowid counter after a replay (never moves backwards,
        so replayed inserts can't collide with rows already present)."""
        self._next_rowid = max(self._next_rowid, next_rowid)

    # -- freeze / snapshot --------------------------------------------------------

    def freeze(self) -> None:
        """Mark the table read-only (query/effect steps of a tick)."""
        self._frozen = True

    def thaw(self) -> None:
        """Make the table writable again (update step of a tick)."""
        self._frozen = False

    def snapshot(self) -> dict[RowId, dict[str, Any]]:
        """Return a deep-enough copy of the row store for later :meth:`restore`."""
        return {rid: dict(row) for rid, row in self._rows.items()}

    def restore(self, snapshot: Mapping[RowId, Mapping[str, Any]]) -> None:
        """Replace the contents of the table with a previous :meth:`snapshot`."""
        was_frozen = self._frozen
        self._frozen = False
        self._rows = {rid: dict(row) for rid, row in snapshot.items()}
        self._next_rowid = max(self._rows.keys(), default=-1) + 1
        self._key_map = {}
        if self.key is not None:
            key_col = self.schema.resolve(self.key)
            for rid, row in self._rows.items():
                self._key_map[row[key_col]] = rid
        for index in self._indexes.values():
            index.rebuild(self)
        self._version += 1
        self._reset_change_log()
        self._frozen = was_frozen

    # -- index registration ---------------------------------------------------------

    def attach_index(self, name: str, index: "TableIndex") -> None:
        """Register *index* under *name* and populate it from current rows."""
        if name in self._indexes:
            raise CatalogError(f"index {name!r} already exists on table {self.name!r}")
        index.rebuild(self)
        self._indexes[name] = index

    def detach_index(self, name: str) -> None:
        if name not in self._indexes:
            raise CatalogError(f"no index {name!r} on table {self.name!r}")
        del self._indexes[name]

    def index(self, name: str) -> "TableIndex":
        try:
            return self._indexes[name]
        except KeyError:
            raise CatalogError(f"no index {name!r} on table {self.name!r}") from None

    @property
    def indexes(self) -> dict[str, "TableIndex"]:
        return dict(self._indexes)

    def find_index_covering(self, columns: Sequence[str]) -> tuple[str, "TableIndex"] | None:
        """The best index whose key columns are all among *columns*.

        The single coverage rule shared by the band-join planner, the
        incremental band probe and the index advisor: an index over a
        subset of the probe dimensions can still serve ``range_search``
        (uncovered dimensions are re-checked on the fetched rows), so
        among eligible indexes the one covering the most probe columns
        wins.  Returns ``(index_name, index)`` or ``None`` — also ``None``
        when a column does not exist in the schema.
        """
        try:
            wanted = {self.schema.resolve(c) for c in columns}
        except SchemaError:
            return None
        best: tuple[str, "TableIndex"] | None = None
        for name, index in self._indexes.items():
            index_columns = tuple(index.columns)
            if not index_columns or not all(c in wanted for c in index_columns):
                continue
            if best is None or len(index_columns) > len(best[1].columns):
                best = (name, index)
        return best


class ChangeCursor:
    """A consumer's position in a table's change log.

    Created by :meth:`Table.open_cursor`.  Each :meth:`poll` returns the
    *net* row changes since the previous poll (or since creation) and
    advances the cursor to the table's current version.  ``None`` signals a
    **lost delta**: the log was truncated past the cursor (capacity
    eviction), reset by a bulk rewrite (``clear`` / ``restore`` / schema
    replacement), or disabled — the consumer must resynchronize from a full
    scan.  The cursor itself survives the gap: it re-anchors at the current
    version, so subsequent polls stream deltas again.
    """

    __slots__ = ("_table", "_version", "_epoch", "polls", "lost_deltas")

    def __init__(self, table: Table):
        self._table = table
        self._version = table.version
        self._epoch = table.log_epoch
        #: Total number of :meth:`poll` calls (tooling/tests).
        self.polls = 0
        #: How many polls could not be served from the log (forced resyncs).
        self.lost_deltas = 0

    @property
    def table(self) -> Table:
        return self._table

    @property
    def version(self) -> int:
        """The table version this cursor has consumed up to."""
        return self._version

    @property
    def position(self) -> tuple[int, int]:
        """The serializable position ``(log epoch, version)``.

        The epoch makes the position globally unambiguous: restored into a
        replayed table (a restart) or one that was bulk-rewritten, it can
        only ever produce a lost-delta resync, never a silently aliased
        delta from a different history whose versions happen to line up.
        """
        return (self._epoch, self._version)

    def seek(self, position: tuple[int, int]) -> None:
        """Restore a :attr:`position` captured earlier (possibly persisted)."""
        self._epoch, self._version = position

    @property
    def pending(self) -> int | None:
        """Logged mutations not yet polled, or ``None`` if unserviceable."""
        if self._epoch != self._table.log_epoch:
            return None
        return self._table.changes_pending(self._version)

    def poll(self) -> tuple[list[dict[str, Any]], list[dict[str, Any]]] | None:
        """Net ``(added, removed)`` since the last poll, else ``None``.

        ``added`` entries are shared references to the stored rows (treat
        as read-only; copy before retaining), ``removed`` entries are the
        retained pre-mutation copies — the same contract as
        :meth:`Table.changes_since`.  Always advances to the current
        position (epoch and version), even on a lost delta.
        """
        self.polls += 1
        delta = self._table.changes_since(self._version, self._epoch)
        self._version = self._table.version
        self._epoch = self._table.log_epoch
        if delta is None:
            self.lost_deltas += 1
        return delta


class TableIndex:
    """Interface implemented by all secondary indexes.

    Concrete index structures live in :mod:`repro.engine.indexes`; they keep
    a mapping from key values (one or more columns) to row ids and are
    notified by the owning :class:`Table` on every mutation.
    """

    #: The resolved column names this index is keyed on.
    columns: tuple[str, ...] = ()

    def range_search(self, bounds: Sequence[tuple[Any, Any]]) -> Iterable[RowId]:
        """Row ids whose key columns fall inside the per-column ``(low,
        high)`` bounds (``None`` = unbounded).  May over-approximate;
        callers re-check the exact predicate."""
        raise NotImplementedError

    def on_insert(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def on_delete(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        raise NotImplementedError

    def on_update(self, rowid: RowId, old: Mapping[str, Any], new: Mapping[str, Any]) -> None:
        self.on_delete(rowid, old)
        self.on_insert(rowid, new)

    def rebuild(self, table: "Table") -> None:
        """Discard contents and re-add every row of *table*."""
        raise NotImplementedError
