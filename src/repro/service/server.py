"""Asyncio TCP transport for the subscription service (JSON lines).

One :class:`SubscriptionServer` owns a :class:`GameWorld` and its
:class:`~repro.service.subscriptions.SubscriptionManager`.  Clients connect
over TCP and exchange newline-delimited JSON:

Client → server requests::

    {"op": "subscribe_table", "table": "UNIT", "filter": [["player", "==", 1]]}
    {"op": "subscribe_aoi", "table": "UNIT", "radius": 12, "dims": ["x", "y"],
     "observer_id": 3}                      # or "center": [50, 50]; with
                                            # "observer_table": "CAMERA" the observer is a
                                            # row of another table holding the same dims
    {"op": "unsubscribe", "id": 7}
    {"op": "ping"}

Server → client responses and stream messages::

    {"type": "subscribed", "id": 7}
    {"type": "snapshot", "id": 7, "tick": 41, "reason": "subscribe", "rows": [...],
     "key": "id"}                           # "key" on keyed (AOI) streams only
    {"type": "delta", "id": 7, "tick": 42, "added": [...], "removed": [...],
     "changed": [{"id": 3, "x": 4.5}, ...]} # keyed streams: key + changed columns
    {"type": "error", "error": "..."} / {"type": "pong", "tick": 42}

(the exact grammar is in :mod:`repro.service.protocol`).

The server drives the world: :meth:`step` runs one tick (whose flush phase
computes every delta once) and then drains each session's outbox to its
socket.  :meth:`run` loops ``step`` at a fixed interval for live demos;
tests and benchmarks call ``step`` directly for determinism.  A slow
client never blocks the tick loop — backpressure is absorbed by the
session's bounded outbox, which degrades to snapshot-resync (see
:mod:`repro.service.outbox`).
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.engine.expressions import BinaryOp, ColumnRef, Expression, Literal
from repro.service.protocol import (
    FragmentCache,
    ResultSet,
    SubscriptionMessage,
    decode_message,
    encode_message,
)
from repro.service.subscriptions import SubscriptionManager

__all__ = ["SubscriptionServer", "SubscriptionClient"]

_FILTER_OPS = {"==", "!=", "<", "<=", ">", ">="}


def _compile_filter(clauses: Any) -> Expression | None:
    """``[["player", "==", 1], ...]`` → an AND-ed predicate expression."""
    if not clauses:
        return None
    predicate: Expression | None = None
    for clause in clauses:
        column, op, value = clause
        if op not in _FILTER_OPS:
            raise ValueError(f"unsupported filter operator {op!r}")
        term = BinaryOp(op, ColumnRef(str(column)), Literal(value))
        predicate = term if predicate is None else BinaryOp("&&", predicate, term)
    return predicate


def _lines(messages: list[SubscriptionMessage], fragments: FragmentCache) -> bytes:
    """The newline-terminated JSON lines of *messages*, as one write."""
    return b"".join([encode_message(message, fragments) + b"\n" for message in messages])


class SubscriptionServer:
    """Serve a world's subscription streams over TCP."""

    def __init__(
        self,
        world: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics_server: Any | None = None,
    ):
        self.world = world
        self.manager: SubscriptionManager = world.subscriptions
        self.host = host
        self.port = port
        #: Optional :class:`~repro.obs.http.MetricsServer` started/stopped
        #: alongside the TCP server so one event loop serves both the
        #: subscription streams and the ``/metrics`` scrape endpoint.
        self.metrics_server = metrics_server
        self._server: asyncio.base_events.Server | None = None
        #: session id → (session, writer); populated per connection.
        self._connections: dict[int, tuple[Any, asyncio.StreamWriter]] = {}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_server is not None:
            await self.metrics_server.start()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        for session_id in list(self._connections):
            self._drop_connection(session_id)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.metrics_server is not None:
            await self.metrics_server.stop()

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def step(self) -> None:
        """Run one world tick (computing all deltas) and push outboxes."""
        self.world.tick()
        await self._drain_outboxes()

    async def run(self, tick_interval: float = 0.05, ticks: int | None = None) -> None:
        """Tick the world at *tick_interval* until cancelled (or *ticks*)."""
        done = 0
        while ticks is None or done < ticks:
            await self.step()
            done += 1
            await asyncio.sleep(tick_interval)

    async def _drain_outboxes(self) -> None:
        # One fragment cache per pass: overlapping AOIs share row objects,
        # so a row is serialized once however many sessions see it.
        fragments: FragmentCache = {}
        for session_id, (session, writer) in list(self._connections.items()):
            messages = session.take()
            if not messages:
                continue
            try:
                writer.write(_lines(messages, fragments))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                self._drop_connection(session_id)

    def _drop_connection(self, session_id: int) -> None:
        record = self._connections.pop(session_id, None)
        if record is None:
            return
        session, writer = record
        self.manager.disconnect(session)
        writer.close()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = self.manager.connect()
        self._connections[session.session_id] = (session, writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    response = self._handle_request(session, json.loads(line))
                except Exception as exc:  # protocol errors must not kill the server
                    response = {"type": "error", "error": str(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                # Initial snapshots are enqueued by subscribe; deliver them
                # immediately so clients see snapshot-then-delta ordering.
                writer.write(_lines(session.take(), {}))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            # Peer vanished or the loop is shutting down: drop the session.
            pass
        finally:
            self._drop_connection(session.session_id)

    def _handle_request(self, session: Any, request: dict[str, Any]) -> dict[str, Any]:
        op = request.get("op")
        if op == "subscribe_table":
            sub_id = self.manager.subscribe_table(
                session,
                request["table"],
                predicate=_compile_filter(request.get("filter")),
            )
            return {"type": "subscribed", "id": sub_id}
        if op == "subscribe_aoi":
            sub_id = self.manager.subscribe_aoi(
                session,
                request["table"],
                radius=request["radius"],
                dims=tuple(request.get("dims", ("x", "y"))),
                center=request.get("center"),
                observer_id=request.get("observer_id"),
                observer_table=request.get("observer_table"),
            )
            return {"type": "subscribed", "id": sub_id}
        if op == "unsubscribe":
            ok = self.manager.unsubscribe(session, int(request["id"]))
            return {"type": "unsubscribed", "id": int(request["id"]), "ok": ok}
        if op == "ping":
            return {"type": "pong", "tick": self.world.tick_count}
        raise ValueError(f"unknown op {op!r}")


class SubscriptionClient:
    """A minimal asyncio client maintaining one ResultSet per subscription."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: subscription id → client-side materialized result.
        self.results: dict[int, ResultSet] = {}

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None

    async def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        assert self._reader is not None and self._writer is not None
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        while True:
            line = await self._reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            message = json.loads(line)
            if "type" in message and message["type"] in {"snapshot", "delta"}:
                self._apply_line(line)
                continue
            if message.get("type") == "error":
                raise RuntimeError(message["error"])
            return message

    def _apply_line(self, line: bytes | str) -> None:
        message = decode_message(line)
        self.results.setdefault(message.subscription_id, ResultSet()).apply(message)

    async def subscribe_table(self, table: str, filter: list | None = None) -> int:
        response = await self._request(
            {"op": "subscribe_table", "table": table, "filter": filter or []}
        )
        sub_id = int(response["id"])
        self.results.setdefault(sub_id, ResultSet())
        await self.pump()  # collect the initial snapshot
        return sub_id

    async def subscribe_aoi(self, table: str, radius: float, **kwargs: Any) -> int:
        response = await self._request(
            {"op": "subscribe_aoi", "table": table, "radius": radius, **kwargs}
        )
        sub_id = int(response["id"])
        self.results.setdefault(sub_id, ResultSet())
        await self.pump()
        return sub_id

    async def pump(self, timeout: float = 0.25) -> int:
        """Apply every stream message currently readable; returns how many."""
        assert self._reader is not None
        applied = 0
        while True:
            try:
                line = await asyncio.wait_for(self._reader.readline(), timeout)
            except asyncio.TimeoutError:
                return applied
            if not line:
                return applied
            payload = json.loads(line)
            if payload.get("type") in {"snapshot", "delta"}:
                self._apply_line(line)
                applied += 1

    def rows(self, subscription_id: int) -> list[dict[str, Any]]:
        return self.results[subscription_id].rows()
