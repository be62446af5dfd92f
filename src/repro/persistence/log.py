"""The segmented delta log and the per-world WAL writer.

:class:`DeltaLog` is the storage structure: an append-only sequence of
records (framed by :mod:`repro.persistence.segment`) split across segment
files in one directory.  Appends go to the tail segment and roll into a
new segment past a size threshold; :meth:`DeltaLog.trim` drops whole
segments from the head once a newer checkpoint makes them unnecessary for
recovery — the Redis-streams shape (append / trim / replay from an
offset) applied to game ticks.

Record kinds (JSON payloads):

``seg``
    First record of every segment: the log's **epoch** (a random token
    minted when the log is created — offsets from a different log or a
    rebuilt one can never be confused with this one's), the segment's base
    record offset, and the last tick committed before the segment started.
``c`` (commit)
    One per tick: for every state table its netted row changes
    ``[rowid, old values, new values]`` (insert → old ``null``; delete →
    new ``null``; update → both) plus the table's next-rowid counter, and
    the world's per-class id counters.  Row values are arrays aligned with
    the entry's ``cols`` list — the schema-aware framing that keeps column
    names out of the hot path (the persist phase's cost is dominated by
    JSON bytes).  When a table cannot serve a netted delta (bulk rewrite,
    change-log overflow) the commit carries the full table instead
    (``f``) — fatter, but the log stays replayable.
``cp`` (checkpoint)
    A full snapshot of every state table (same columnar row form), written
    every ``checkpoint_interval`` ticks so replay cost is bounded by the
    interval, not the log length.  ``GameWorld.rewind_to`` writes one too:
    its tick is older than the records before it, and the timeline goes on
    from there.

:class:`WorldWal` is the writer side: attached to a
:class:`~repro.runtime.world.GameWorld` (via ``GameWorld.attach_wal``), it
consolidates each table's change log once per tick
(:meth:`~repro.engine.table.Table.consolidate_changes`) and appends the
commit record — the timed *persist phase* of the tick.  On attach to a
non-empty log it recovers: torn tails are truncated, the last durable
tick is replayed into the world, and appending resumes where the log left
off.
"""

from __future__ import annotations

import os
import secrets
from typing import TYPE_CHECKING, Any, Iterator

from repro.persistence import segment as seg

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.runtime.world import GameWorld

__all__ = ["WalError", "DeltaLog", "WorldWal", "DEFAULT_SEGMENT_BYTES"]

#: Roll to a new segment once the active one exceeds this many bytes.
DEFAULT_SEGMENT_BYTES = 1 << 20


class WalError(Exception):
    """Raised on unusable logs or invalid WAL operations."""


def _row_values(row: Any, cols: list[str]) -> list[Any] | None:
    """A row as a value array aligned with *cols* (``None`` stays ``None``)."""
    if row is None:
        return None
    return [row.get(name) for name in cols]


def _row_dict(values: list[Any] | None, cols: list[str]) -> dict[str, Any] | None:
    """Inverse of :func:`_row_values` (the replay side)."""
    if values is None:
        return None
    return dict(zip(cols, values))


class DeltaLog:
    """An append-only, segmented, checksummed record log in one directory.

    Opening an existing log validates it front to back: the longest prefix
    of intact records wins, a torn or corrupt tail is truncated in place
    (``repair=True``, the default) or merely ignored (``repair=False`` —
    the read-only mode the crash-injection tests use so they can corrupt a
    log without the reader healing it).
    """

    def __init__(
        self,
        path: str,
        segment_max_bytes: int = DEFAULT_SEGMENT_BYTES,
        *,
        fsync: bool = False,
        repair: bool = True,
    ):
        self.path = path
        self.segment_max_bytes = segment_max_bytes
        self.fsync = fsync
        os.makedirs(path, exist_ok=True)
        #: Ordered segment file names (not full paths).
        self._segments: list[str] = []
        #: Epoch token minted at creation, stable across reopens.
        self.epoch: str = ""
        #: Total records in the log, including segment headers — the next
        #: record's offset.
        self.record_count = 0
        #: Tick of the last commit/checkpoint, or ``None`` for a virgin log.
        self.last_tick: int | None = None
        #: Smallest commit tick still present (advances on :meth:`trim`).
        self.first_commit_tick: int | None = None
        #: ``(tick, segment_index)`` of every checkpoint still present.
        self.checkpoints: list[tuple[int, int]] = []
        self.records_appended = 0
        self.bytes_appended = 0
        self._writer: seg.SegmentWriter | None = None
        self._load(repair=repair)
        if not self._segments:
            self.epoch = secrets.token_hex(8)
            self._start_segment()

    # -- opening / validation ------------------------------------------------------

    def _segment_path(self, name: str) -> str:
        return os.path.join(self.path, name)

    def _load(self, *, repair: bool) -> None:
        names = sorted(
            n for n in os.listdir(self.path) if seg.segment_base(n) is not None
        )
        broken_from: int | None = None
        for index, name in enumerate(names):
            if broken_from is not None:
                break
            payloads, valid, total = seg.scan_segment(self._segment_path(name))
            header = seg.decode_payload(payloads[0]) if payloads else None
            if (
                header is None
                or header.get("k") != "seg"
                or (self.epoch and header.get("epoch") != self.epoch)
                or (self._segments and header.get("base") != self.record_count)
            ):
                # Unreadable, alien, or discontinuous header: this segment
                # and everything after it are not part of the valid prefix.
                # (The first segment may start at any base — trimming
                # removes head segments — but each further segment must
                # begin exactly where the previous one ended.)
                broken_from = index
                break
            if not self.epoch:
                self.epoch = header["epoch"]
            self._segments.append(name)
            self.record_count = header["base"]
            for payload in payloads:
                record = seg.decode_payload(payload)
                self._index_record(record, len(self._segments) - 1)
                self.record_count += 1
            if valid < total:
                if repair:
                    with open(self._segment_path(name), "r+b") as handle:
                        handle.truncate(valid)
                broken_from = index + 1
        if broken_from is not None and repair:
            for name in names[broken_from:]:
                if name not in self._segments:
                    os.remove(self._segment_path(name))
        if self._segments:
            self._writer = seg.SegmentWriter(
                self._segment_path(self._segments[-1]), fsync=self.fsync
            )

    def _index_record(self, record: dict[str, Any], segment_index: int) -> None:
        kind = record.get("k")
        if kind == "c":
            self.last_tick = record["t"]
            if self.first_commit_tick is None:
                self.first_commit_tick = record["t"]
        elif kind == "cp":
            self.last_tick = record["t"]
            self.checkpoints.append((record["t"], segment_index))

    # -- appending -----------------------------------------------------------------

    def _start_segment(self) -> None:
        if self._writer is not None:
            self._writer.close()
        name = seg.segment_file_name(self.record_count)
        self._segments.append(name)
        self._writer = seg.SegmentWriter(self._segment_path(name), fsync=self.fsync)
        header = {
            "k": "seg",
            "epoch": self.epoch,
            "base": self.record_count,
            "pt": self.last_tick,
        }
        self._append_payload(seg.encode_payload(header))

    def _append_payload(self, payload: bytes) -> int:
        assert self._writer is not None
        written = self._writer.append(payload)
        self.record_count += 1
        self.records_appended += 1
        self.bytes_appended += written
        return written

    def append(self, record: dict[str, Any]) -> int:
        """Append one commit/checkpoint record; returns bytes written.

        Rolls to a fresh segment first when the active one is over the
        size threshold, so a record (plus its segment header) always lands
        whole in one file.
        """
        if record.get("k") not in ("c", "cp"):
            raise WalError(f"cannot append record kind {record.get('k')!r}")
        if self._writer is None or self._writer.bytes_written >= self.segment_max_bytes:
            self._start_segment()
        written = self._append_payload(seg.encode_payload(record))
        self._index_record(record, len(self._segments) - 1)
        assert self._writer is not None
        self._writer.flush()
        return written

    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- reading -------------------------------------------------------------------

    def records(self) -> Iterator[dict[str, Any]]:
        """Decoded records of the valid prefix, oldest first (re-read from
        disk, so an external reader sees exactly what survives a crash)."""
        self.flush()
        epoch: str | None = None
        for name in sorted(
            n for n in os.listdir(self.path) if seg.segment_base(n) is not None
        ):
            payloads, valid, total = seg.scan_segment(self._segment_path(name))
            header = seg.decode_payload(payloads[0]) if payloads else None
            if header is None or header.get("k") != "seg":
                return
            if epoch is None:
                epoch = header.get("epoch")
            elif header.get("epoch") != epoch:
                return
            for payload in payloads:
                yield seg.decode_payload(payload)
            if valid < total:
                return

    @property
    def byte_size(self) -> int:
        self.flush()
        return sum(
            os.path.getsize(self._segment_path(name)) for name in self._segments
        )

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- trimming ------------------------------------------------------------------

    def trim(self) -> int:
        """Drop head segments made redundant by the newest checkpoint.

        A segment is removable when a checkpoint lives in a *later*
        segment: recovery starts at the newest checkpoint, so nothing
        before its segment is ever read again.  Catch-up readers lose the
        trimmed ticks — that is the offset-too-old path subscribers resync
        around.  Returns the number of segments removed.
        """
        if not self.checkpoints:
            return 0
        keep_from = max(index for _, index in self.checkpoints)
        if keep_from == 0:
            return 0
        dropped = self._segments[:keep_from]
        for name in dropped:
            os.remove(self._segment_path(name))
        self._segments = self._segments[keep_from:]
        self.checkpoints = [
            (tick, index - keep_from)
            for tick, index in self.checkpoints
            if index >= keep_from
        ]
        # The earliest surviving commit tick must be re-derived from disk.
        self.first_commit_tick = None
        for record in self.records():
            if record.get("k") == "c":
                self.first_commit_tick = record["t"]
                break
        return len(dropped)


class WorldWal:
    """The per-world WAL writer: one commit record per tick.

    Created by ``GameWorld.attach_wal``.  Holds a consolidation position
    ``(log epoch, version)`` per state table; :meth:`commit_tick` nets
    everything since the previous commit — tick-loop updates *and*
    out-of-tick churn (spawns, destroys, ``set_state``) alike — into one
    commit record.  Every ``checkpoint_interval`` commits it also writes a
    full checkpoint, and with ``auto_trim`` drops the segments the new
    checkpoint obsoleted.
    """

    def __init__(
        self,
        world: "GameWorld",
        log: DeltaLog,
        checkpoint_interval: int = 50,
        *,
        auto_trim: bool = False,
    ):
        if checkpoint_interval < 1:
            raise WalError("checkpoint_interval must be at least 1")
        self.world = world
        self.log = log
        self.checkpoint_interval = checkpoint_interval
        self.auto_trim = auto_trim
        self.commits = 0
        self.full_table_records = 0
        #: table name → (log epoch, version) consolidated up to.
        self._positions: dict[str, tuple[int, int]] = {}
        for _, table in self._tables():
            table.enable_change_log()
        self._anchor_positions()

    # -- plumbing ------------------------------------------------------------------

    def _tables(self):
        """The world's state tables, in stable (schema declaration) order."""
        for generated in self.world.schemas.values():
            for table_name in generated.state_table_names():
                yield table_name, self.world.catalog.table(table_name)

    def _anchor_positions(self) -> None:
        self._positions = {
            name: (table.log_epoch, table.version) for name, table in self._tables()
        }

    def _full_entry(self, table) -> dict[str, Any]:
        self.full_table_records += 1
        cols = [column.name for column in table.schema]
        return {
            "nr": table.next_rowid,
            "cols": cols,
            "f": [
                [rowid, _row_values(table.get(rowid), cols)]
                for rowid in sorted(table.row_ids())
            ],
        }

    # -- the persist phase ---------------------------------------------------------

    def commit_tick(self, tick: int) -> dict[str, int]:
        """Append the commit record for *tick*; returns append statistics."""
        tables: dict[str, Any] = {}
        delta_rows = 0
        for name, table in self._tables():
            epoch, version = self._positions[name]
            changes = table.consolidate_changes(version, epoch)
            if changes is None:
                # Bulk rewrite or change-log overflow: delta unknowable,
                # fall back to the full table so the log stays replayable.
                tables[name] = self._full_entry(table)
            else:
                entry: dict[str, Any] = {"nr": table.next_rowid}
                if changes:
                    cols = [column.name for column in table.schema]
                    entry["cols"] = cols
                    entry["d"] = [
                        [rowid, _row_values(old, cols), _row_values(new, cols)]
                        for rowid, old, new in changes
                    ]
                    delta_rows += len(changes)
                tables[name] = entry
            self._positions[name] = (table.log_epoch, table.version)
        record = {
            "k": "c",
            "t": tick,
            "ids": dict(self.world._next_ids),
            "tables": tables,
        }
        bytes_written = self.log.append(record)
        self.commits += 1
        if self.commits % self.checkpoint_interval == 0:
            bytes_written += self.checkpoint(tick)
            if self.auto_trim:
                self.log.trim()
        return {"bytes": bytes_written, "delta_rows": delta_rows}

    def checkpoint(self, tick: int | None = None) -> int:
        """Write a full-snapshot checkpoint record; returns bytes written."""
        if tick is None:
            tick = self.world.tick_count - 1
        record = {
            "k": "cp",
            "t": tick,
            "ids": dict(self.world._next_ids),
            "tables": {
                name: {
                    "nr": table.next_rowid,
                    "cols": (cols := [column.name for column in table.schema]),
                    "rows": [
                        [rowid, _row_values(table.get(rowid), cols)]
                        for rowid in sorted(table.row_ids())
                    ],
                }
                for name, table in self._tables()
            },
        }
        return self.log.append(record)

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> int | None:
        """Replay the log's last durable tick into the attached world.

        Returns the recovered tick (``-1`` means "initial state, before
        any tick") or ``None`` when the log holds nothing recoverable (a
        virgin log).  Afterwards the consolidation positions re-anchor at
        the restored state, so the next :meth:`commit_tick` continues the
        log seamlessly.
        """
        from repro.persistence.replay import ReplayError, recover_world

        try:
            state = recover_world(self.world, self.log)
        except ReplayError:
            return None
        self._anchor_positions()
        return state.tick

    def rewind(self, tick: int) -> None:
        """Restore tick boundary *tick* into the world and checkpoint it.

        The checkpoint is older than the ticks logged before it: replay
        starts there and the abandoned commits are never read again (see
        :func:`~repro.persistence.replay.replay_tables`).  Raises
        ``ReplayError`` when the current timeline does not hold *tick*.
        """
        from repro.persistence.replay import recover_world

        recover_world(self.world, self.log, tick)
        self._anchor_positions()
        self.checkpoint(tick)

    def stats(self) -> dict[str, Any]:
        return {
            "commits": self.commits,
            "full_table_records": self.full_table_records,
            "segments": self.log.segment_count,
            "bytes": self.log.byte_size,
            "last_tick": self.log.last_tick,
            "first_commit_tick": self.log.first_commit_tick,
            "checkpoints": len(self.log.checkpoints),
            "epoch": self.log.epoch,
        }

    def close(self) -> None:
        self.log.close()
