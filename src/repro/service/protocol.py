"""Wire protocol of the subscription service: snapshot-then-delta streams.

Every subscription delivers one :class:`Snapshot` (the standing query's
materialized result at subscribe time) followed by a stream of
:class:`Delta` messages — *signed row deltas*: rows entering the result
(``added``) and rows leaving it (``removed``).  On a plain stream an
updated row appears in both lists (old values in ``removed``, new values
in ``added``), exactly mirroring
:meth:`repro.engine.table.Table.changes_since`.  On a **keyed** stream —
the snapshot names the key column, as every AOI snapshot does — a row that
stays in the result is updated in place by one ``changed`` record: the key
plus only the columns whose values differ.

Applying the deltas in order to the snapshot reproduces, tick for tick,
the result of re-running the standing query from scratch — that is the
service's correctness contract, and :class:`ResultSet` is the reference
applier used by the client, the tests and the benchmarks.  When the
service cannot guarantee the contract cheaply (change-log overflow,
slow-consumer outbox overflow) it re-sends a :class:`Snapshot` with a
``resync`` reason instead of a delta; the client replaces its state and
the stream continues.

Messages serialize to JSON lines for the TCP server
(:mod:`repro.service.server`); in-process consumers use the dataclasses
directly.

**Rows in messages are read-only.**  Messages are frozen and the service
shares one row object between every message, subscriber cache and grid
bucket that mentions it (a changed row is copied out of its table once per
tick, however many subscribers see it).  Consumers must copy before
mutating; :meth:`ResultSet.apply` does.  The same sharing is what lets
:func:`encode_message` serialize a row once per drain pass.

Wire grammar (one JSON object per line, keys sorted, compact separators)::

    {"id": 7, "key": "id", "reason": "subscribe", "rows": [row, ...],
     "tick": 41, "type": "snapshot"}            # "key" only on keyed streams
    {"added": [row, ...], "changed": [{"id": 3, "x": 4.5}, ...], "id": 7,
     "removed": [row, ...], "tick": 42, "type": "delta"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

__all__ = [
    "Snapshot",
    "Delta",
    "SubscriptionMessage",
    "ResultSet",
    "FragmentCache",
    "encode_message",
    "decode_message",
    "row_key",
]


@dataclass(frozen=True)
class Snapshot:
    """Full materialized result of a standing query at one tick."""

    subscription_id: int
    tick: int
    rows: tuple[dict[str, Any], ...]
    #: Why the snapshot was sent: ``"subscribe"`` for the initial
    #: materialization, ``"resync:change-log"`` after a change-log
    #: overflow/reset, ``"resync:outbox"`` after a slow consumer's outbox
    #: overflowed and buffered deltas had to be dropped.
    reason: str = "subscribe"
    #: Key column of a keyed stream (unique per row of the result); the
    #: stream's deltas may then carry ``changed`` records.  ``None`` for a
    #: plain multiset stream.
    key: str | None = None


@dataclass(frozen=True)
class Delta:
    """Signed row deltas of one standing query for one tick."""

    subscription_id: int
    tick: int
    added: tuple[dict[str, Any], ...] = ()
    removed: tuple[dict[str, Any], ...] = ()
    #: Keyed streams only: in-place updates of rows the result holds and
    #: keeps — the key column plus the columns whose value or value type
    #: changed (a row whose every column still compares equal is no change
    #: at all: the table's change log nets by equality).
    changed: tuple[dict[str, Any], ...] = ()

    def __len__(self) -> int:
        return len(self.added) + len(self.removed) + len(self.changed)


SubscriptionMessage = Snapshot | Delta


def row_key(row: Mapping[str, Any]) -> tuple:
    """A hashable multiset identity for a result row.

    Result rows are flat column→scalar mappings; the rare unhashable value
    (a set effect materialized into a result) falls back to ``repr``.
    """
    items = []
    for name in sorted(row):
        value = row[name]
        try:
            hash(value)
        except TypeError:
            value = repr(value)
        items.append((name, value))
    return tuple(items)


@dataclass
class ResultSet:
    """Client-side materialization of one subscription's stream.

    A plain stream is a row *multiset* (standing queries may produce
    duplicate rows, e.g. projections), identified by :func:`row_key`; a
    keyed stream (the snapshot named its key column) is indexed by that
    column's value, which is what lets a ``changed`` record find its row.
    ``apply`` consumes messages in stream order; ``rows()`` returns the
    current result.  Removing or changing a row the set does not hold, or
    adding a second row under a held key, raises — the stream protocol
    guarantees it never happens, so a miss is a service bug the tests must
    surface.
    """

    _counts: dict[Any, int] = field(default_factory=dict)
    _rows: dict[Any, dict[str, Any]] = field(default_factory=dict)
    #: Key column named by the last snapshot (``None`` = plain multiset).
    key: str | None = None
    last_tick: int = -1
    snapshots_applied: int = 0
    deltas_applied: int = 0

    def apply(self, message: SubscriptionMessage) -> None:
        if isinstance(message, Snapshot):
            self._counts.clear()
            self._rows.clear()
            self.key = message.key
            for row in message.rows:
                self._add(dict(row))
            self.snapshots_applied += 1
        else:
            for row in message.removed:
                self._remove(row)
            for record in message.changed:
                self._change(record)
            for row in message.added:
                self._add(dict(row))
            self.deltas_applied += 1
        self.last_tick = message.tick

    def _ident(self, row: Mapping[str, Any]) -> Any:
        return row_key(row) if self.key is None else row.get(self.key)

    def _add(self, row: dict[str, Any]) -> None:
        ident = self._ident(row)
        count = self._counts.get(ident, 0)
        if count and self.key is not None:
            raise ValueError(f"delta adds a row under a key the result set holds: {row!r}")
        self._counts[ident] = count + 1
        self._rows[ident] = row

    def _remove(self, row: Mapping[str, Any]) -> None:
        ident = self._ident(row)
        count = self._counts.get(ident, 0)
        if count <= 0:
            raise ValueError(f"delta removes a row the result set does not hold: {dict(row)!r}")
        if count == 1:
            del self._counts[ident]
            del self._rows[ident]
        else:
            self._counts[ident] = count - 1

    def _change(self, record: Mapping[str, Any]) -> None:
        held = None if self.key is None else self._rows.get(record.get(self.key))
        if held is None:
            raise ValueError(
                f"delta changes a row the result set does not hold: {dict(record)!r}"
            )
        held.update(record)

    def rows(self) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        for ident, count in self._counts.items():
            out.extend(dict(self._rows[ident]) for _ in range(count))
        return out

    def __len__(self) -> int:
        return sum(self._counts.values())


# -- JSON-lines codec (the TCP server's wire format) ----------------------------------


def _encode_fallback(value: Any) -> Any:
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return repr(value)


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_encode_fallback)

#: ``id(row) → (row, its JSON bytes)``; the entry pins the row, so the id
#: cannot be reused while the cache lives.
FragmentCache = dict[int, tuple[Mapping[str, Any], bytes]]


def _join_rows(rows: Iterable[Mapping[str, Any]], fragments: FragmentCache) -> bytes:
    parts = []
    for row in rows:
        hit = fragments.get(id(row))
        if hit is None:
            hit = fragments[id(row)] = (row, _ENCODER.encode(row).encode())
        parts.append(hit[1])
    return b",".join(parts)


def encode_message(message: SubscriptionMessage, fragments: FragmentCache | None = None) -> bytes:
    """One JSON line (bytes, no trailing newline) for *message*.

    The line is assembled from per-row / per-record JSON fragments.  Pass
    one *fragments* dict to every call of a drain pass and a row object
    mentioned by k messages (overlapping AOIs share their row objects) is
    serialized once, not k times.  Rows are read-only, so a fragment stays
    valid as long as its row object lives — and the cache keeps it alive.
    """
    if fragments is None:
        fragments = {}
    if isinstance(message, Snapshot):
        key = b"" if message.key is None else b'"key":%b,' % json.dumps(message.key).encode()
        return b'{"id":%d,%b"reason":%b,"rows":[%b],"tick":%d,"type":"snapshot"}' % (
            message.subscription_id,
            key,
            json.dumps(message.reason).encode(),
            _join_rows(message.rows, fragments),
            message.tick,
        )
    return b'{"added":[%b],"changed":[%b],"id":%d,"removed":[%b],"tick":%d,"type":"delta"}' % (
        _join_rows(message.added, fragments),
        _join_rows(message.changed, fragments),
        message.subscription_id,
        _join_rows(message.removed, fragments),
        message.tick,
    )


def decode_message(line: str | bytes) -> SubscriptionMessage:
    """Parse one JSON line back into a message dataclass.

    Raises :class:`ValueError` for a line that is not a stream message
    (transports use that to tell responses from stream traffic).
    """
    payload = json.loads(line)
    kind = payload.get("type")
    if kind == "snapshot":
        return Snapshot(
            subscription_id=payload["id"],
            tick=payload["tick"],
            rows=tuple(payload["rows"]),
            reason=payload.get("reason", "subscribe"),
            key=payload.get("key"),
        )
    if kind == "delta":
        return Delta(
            subscription_id=payload["id"],
            tick=payload["tick"],
            added=tuple(payload["added"]),
            removed=tuple(payload["removed"]),
            changed=tuple(payload.get("changed", ())),
        )
    raise ValueError(f"unknown message type {kind!r}")


def freeze_rows(rows: Iterable[Mapping[str, Any]]) -> tuple[dict[str, Any], ...]:
    """Copy *rows* into the tuple-of-fresh-dicts form messages carry."""
    return tuple(dict(row) for row in rows)
