"""Time-travel replay: reconstruct any tick's world state from the log.

Replay is the read side of the delta log and the heart of both crash
recovery and time-travel debugging: pick the last checkpoint in log order
at or before the target tick, then apply the commit records after it up
to the target, in order.  Log order, not tick order, is what makes a
rewind stick: ``GameWorld.rewind_to`` appends a checkpoint older than the
ticks before it, and the commits after it are the timeline the world went
on with.  Because a commit record is the *exact* netted difference
between two tick boundaries, the reconstruction is bit-for-bit the state
the live world held at that boundary — the replay-determinism suite
asserts precisely that.

Reading is deliberately side-effect free: :func:`replay_tables` accepts a
log *directory path* and never repairs or mutates files, so the
crash-injection tests can corrupt a log and observe exactly what a
recovering process would see.  Only the longest validating prefix of the
record stream is considered — everything after the first torn or corrupt
record is garbage by construction (records are written sequentially).

:func:`recover_world` pushes a replayed state back into a live
:class:`~repro.runtime.world.GameWorld` (tables, rowid counters, object-id
counters, tick counter).  :func:`net_table_changes` serves the service
layer: the netted ``(added, removed)`` row sets of one table across a tick
range, which is what a restarted subscription node sends to a client
catching up from a log offset instead of a full snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.persistence import segment as seg
from repro.persistence.log import DeltaLog, _row_dict

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.runtime.world import GameWorld

__all__ = [
    "ReplayError",
    "RecoveredState",
    "iter_log_records",
    "net_table_changes",
    "recover_world",
    "replay_tables",
]


class ReplayError(Exception):
    """Raised when a log cannot produce the requested state."""


@dataclass
class RecoveredState:
    """A fully materialized world state at one tick boundary.

    ``tick`` is the last tick whose effects are included; ``-1`` is the
    initial state (before tick 0) captured by the baseline checkpoint.
    """

    tick: int
    #: table name → rowid → row (decoded, plain dicts).
    tables: dict[str, dict[int, dict[str, Any]]] = field(default_factory=dict)
    #: table name → next rowid to assign.
    next_rowids: dict[str, int] = field(default_factory=dict)
    #: class name → next object id to assign.
    next_ids: dict[str, int] = field(default_factory=dict)
    epoch: str | None = None
    checkpoint_tick: int | None = None
    commits_applied: int = 0


def iter_log_records(source: str | DeltaLog) -> Iterator[dict[str, Any]]:
    """Decoded records of *source*'s valid prefix, oldest first.

    *source* may be an open :class:`DeltaLog` or a log directory path; the
    path form reads segments directly and never repairs them.
    """
    if isinstance(source, DeltaLog):
        yield from source.records()
        return
    names = sorted(n for n in os.listdir(source) if seg.segment_base(n) is not None)
    epoch: str | None = None
    expected_base: int | None = None
    for name in names:
        payloads, valid, total = seg.scan_segment(os.path.join(source, name))
        header = seg.decode_payload(payloads[0]) if payloads else None
        if header is None or header.get("k") != "seg":
            return
        if epoch is None:
            epoch = header.get("epoch")
        elif header.get("epoch") != epoch or header.get("base") != expected_base:
            return
        expected_base = header["base"] + len(payloads)
        for payload in payloads:
            yield seg.decode_payload(payload)
        if valid < total:
            return


def replay_tables(source: str | DeltaLog, tick: int | None = None) -> RecoveredState:
    """Reconstruct the state at tick boundary *tick* (default: the last record).

    Loads the last checkpoint in log order at or before the target and
    applies the commits after it, in order.  Raises :class:`ReplayError`
    when the log's valid prefix holds no usable checkpoint (a virgin log,
    or one whose head was corrupted away) or when the current timeline
    does not reach the target tick (cut off, or abandoned by a rewind).
    """
    records = list(iter_log_records(source))
    epoch = next(
        (r.get("epoch") for r in records if r.get("k") == "seg"), None
    )
    boundary_ticks = [r["t"] for r in records if r.get("k") in ("c", "cp")]
    if not boundary_ticks:
        raise ReplayError("log holds no durable tick (no valid commit or checkpoint)")
    target = boundary_ticks[-1] if tick is None else tick
    start = None
    for index, record in enumerate(records):
        if record.get("k") == "cp" and record["t"] <= target:
            start = index
    if start is None:
        raise ReplayError(f"no checkpoint at or before tick {target}")
    checkpoint = records[start]

    state = RecoveredState(
        tick=checkpoint["t"],
        epoch=epoch,
        checkpoint_tick=checkpoint["t"],
        next_ids={name: int(n) for name, n in checkpoint["ids"].items()},
    )
    for name, entry in checkpoint["tables"].items():
        cols = entry["cols"]
        state.tables[name] = {
            int(rowid): _row_dict(values, cols) for rowid, values in entry["rows"]
        }
        state.next_rowids[name] = int(entry["nr"])

    for record in records[start + 1 :]:
        if record.get("k") != "c":
            continue
        if record["t"] > target:
            break
        for name, entry in record["tables"].items():
            cols = entry.get("cols", ())
            if "f" in entry:
                state.tables[name] = {
                    int(rowid): _row_dict(values, cols) for rowid, values in entry["f"]
                }
            else:
                rows = state.tables.setdefault(name, {})
                for rowid, _old, new in entry.get("d", ()):
                    if new is None:
                        rows.pop(int(rowid), None)
                    else:
                        rows[int(rowid)] = _row_dict(new, cols)
            state.next_rowids[name] = int(entry["nr"])
        state.next_ids = {name: int(n) for name, n in record["ids"].items()}
        state.tick = record["t"]
        state.commits_applied += 1

    if state.tick != target:
        raise ReplayError(
            f"log cannot reach tick {target}: replay stopped at tick {state.tick}"
        )
    return state


def recover_world(
    world: "GameWorld", source: str | DeltaLog, tick: int | None = None
) -> RecoveredState:
    """Replay *source* to *tick* and install the state into *world*.

    The world must have been built from the same program (same schemas and
    table names) as the one that wrote the log — the standard WAL
    contract.  Restores every state table (rows, rowid counters), the
    per-class object-id counters and the tick counter; raises
    :class:`ReplayError` when the log names a table the world lacks.
    """
    state = replay_tables(source, tick)
    for name, rows in state.tables.items():
        if not world.catalog.has_table(name):
            raise ReplayError(
                f"log names table {name!r} which this world does not define "
                "(was the world built from the same program?)"
            )
        table = world.catalog.table(name)
        table.restore(rows)
        table.set_next_rowid(state.next_rowids[name])
    world.tick_count = state.tick + 1
    world._next_ids.update(state.next_ids)
    return state


def _current_timeline(
    records: list[dict[str, Any]],
) -> tuple[int | None, dict[int, dict[str, Any]], list[tuple[int, int]]]:
    """The last boundary tick, the commits of the current timeline by tick,
    and the ``(rewind tick, abandoned tick)`` span of every rewind.

    A checkpoint older than the boundary before it is a rewind: the
    commits past its tick are abandoned, and a reader that was at a tick
    inside the span may hold either timeline's state there.
    """
    last: int | None = None
    commits: dict[int, dict[str, Any]] = {}
    rewinds: list[tuple[int, int]] = []
    for record in records:
        kind = record.get("k")
        if kind not in ("c", "cp"):
            continue
        tick = record["t"]
        if kind == "c":
            commits[tick] = record
        elif last is not None and tick < last:
            rewinds.append((tick, last))
            commits = {t: c for t, c in commits.items() if t <= tick}
        last = tick
    return last, commits, rewinds


def net_table_changes(
    source: str | DeltaLog,
    table_name: str,
    after_tick: int,
    upto_tick: int | None = None,
) -> tuple[list[dict[str, Any]], list[dict[str, Any]]] | None:
    """Netted ``(added, removed)`` rows of one table across a tick range.

    Covers the current timeline's commits with ``after_tick < t <=
    upto_tick`` (default: through the last record).  Returns ``None`` when
    the log cannot serve the range exactly, in which case the caller must
    fall back to a snapshot: the current timeline does not hold position
    *after_tick* (it is past the last record, or inside a span a rewind
    abandoned), a commit in the range is missing (trimmed away, or past
    the log's tail), or a full-table fallback record hides the old row
    values.

    The netting mirrors :meth:`repro.engine.table.Table.changes_since`:
    per row, the *oldest* pre-image and the *newest* post-image in the
    range; a row whose images are equal nets to nothing.  ``removed``
    rows are exactly what a consumer current through ``after_tick`` holds,
    so the pair applies cleanly to a client-side
    :class:`~repro.service.protocol.ResultSet`.
    """
    last, commits, rewinds = _current_timeline(list(iter_log_records(source)))
    if last is None or after_tick > last:
        return None
    if any(rewind < after_tick <= abandoned for rewind, abandoned in rewinds):
        return None
    if upto_tick is None:
        upto_tick = last
    if upto_tick <= after_tick:
        return [], []
    in_range = [commits.get(t) for t in range(after_tick + 1, upto_tick + 1)]
    if None in in_range:
        return None  # part of the history is gone
    first_old: dict[int, Any] = {}
    last_new: dict[int, Any] = {}
    for commit in in_range:
        entry = commit["tables"].get(table_name)
        if entry is None:
            continue
        if "f" in entry:
            return None  # full-table record: pre-images unknown
        cols = entry.get("cols", ())
        for rowid, old, new in entry.get("d", ()):
            rowid = int(rowid)
            if rowid not in first_old:
                first_old[rowid] = _row_dict(old, cols)
            last_new[rowid] = _row_dict(new, cols)
    added: list[dict[str, Any]] = []
    removed: list[dict[str, Any]] = []
    for rowid, old in first_old.items():
        new = last_new[rowid]
        if old == new:
            continue
        if old is not None:
            removed.append(old)
        if new is not None:
            added.append(new)
    return added, removed
