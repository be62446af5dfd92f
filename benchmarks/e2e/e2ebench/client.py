"""The load client: one process, several TCP connections, many subscriptions.

Run by the harness as ``python client.py HOST PORT`` with ``src`` on
``PYTHONPATH``.  It is a process of its own because a reader inside the
server's event loop only runs when the tick loop yields: its "latency"
would be event-loop starvation, not the system.

Protocol with the harness, one JSON object per line on stdin/stdout:

* ``{"cmd": "subscribe", "connections": [[request, ...], ...]}`` — open one
  connection per list, send its subscribe requests one at a time, apply the
  snapshots; answers ``{"ids": [[subscription id, ...], ...]}``.
* ``{"cmd": "finish"}`` — ping every connection, keep applying until every
  pong is back (TCP keeps the order, so every delta written before it has
  arrived), then answer with the report and exit.

Every byte read is stamped with ``perf_counter()`` *before* it is decoded;
on Linux that clock is the system-wide ``CLOCK_MONOTONIC``, so the harness
may subtract its own commit stamps from these.
"""

from __future__ import annotations

import json
import selectors
import socket
import sys
import time
from collections import defaultdict
from typing import Any

from repro.service.protocol import ResultSet, Snapshot, decode_message

__all__ = ["Connection", "main"]


class Connection:
    """One blocking socket, the replicas of its subscriptions, its tallies."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.results: dict[int, ResultSet] = {}
        self.responses: list[dict[str, Any]] = []
        #: Per delta message: (tick, stamp of the read that completed it).
        self.received: list[tuple[int, float]] = []
        self.bytes_by_tick: dict[int, int] = defaultdict(int)
        self.apply_seconds_by_tick: dict[int, float] = defaultdict(float)
        self.resyncs = 0
        self.pongs = 0

    def send(self, request: dict[str, Any]) -> None:
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def read(self) -> bool:
        """Read what is there and apply every complete line; ``False`` at EOF."""
        data = self.sock.recv(1 << 20)
        stamp = time.perf_counter()
        if not data:
            return False
        lines = (self._buffer + data).split(b"\n")
        self._buffer = lines.pop()
        for line in lines:
            self._apply(line, stamp)
        return True

    def _apply(self, line: bytes, stamp: float) -> None:
        started = time.perf_counter()
        try:
            message = decode_message(line.decode())
        except ValueError:
            # Not a stream message: the response to one of our own requests.
            response = json.loads(line)
            if response.get("type") == "pong":
                self.pongs += 1
            else:
                self.responses.append(response)
            return
        self.results.setdefault(message.subscription_id, ResultSet()).apply(message)
        elapsed = time.perf_counter() - started
        self.apply_seconds_by_tick[message.tick] += elapsed
        self.bytes_by_tick[message.tick] += len(line) + 1
        if isinstance(message, Snapshot):
            if message.reason.startswith("resync"):
                self.resyncs += 1
        else:
            self.received.append((message.tick, stamp))

    def request(self, request: dict[str, Any]) -> dict[str, Any]:
        """Send one request and read until its response is in."""
        self.send(request)
        while not self.responses:
            if not self.read():
                raise ConnectionError("server closed the connection")
        response = self.responses.pop(0)
        if response.get("type") == "error":
            raise RuntimeError(response["error"])
        return response


def report(connections: list[Connection]) -> dict[str, Any]:
    bytes_by_tick: dict[int, int] = defaultdict(int)
    apply_by_tick: dict[int, float] = defaultdict(float)
    for conn in connections:
        for tick, count in conn.bytes_by_tick.items():
            bytes_by_tick[tick] += count
        for tick, seconds in conn.apply_seconds_by_tick.items():
            apply_by_tick[tick] += seconds
    return {
        "received": [pair for conn in connections for pair in conn.received],
        "bytes_by_tick": bytes_by_tick,
        "apply_seconds_by_tick": apply_by_tick,
        "resyncs": sum(conn.resyncs for conn in connections),
        "rows": {
            sub_id: result.rows()
            for conn in connections
            for sub_id, result in conn.results.items()
        },
    }


def main(host: str, port: int) -> int:
    command = json.loads(sys.stdin.readline())
    assert command["cmd"] == "subscribe", command
    connections = []
    ids = []
    for requests in command["connections"]:
        conn = Connection(host, port)
        connections.append(conn)
        ids.append([int(conn.request(request)["id"]) for request in requests])
    print(json.dumps({"ids": ids}), flush=True)

    selector = selectors.DefaultSelector()
    for conn in connections:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    selector.register(sys.stdin, selectors.EVENT_READ, None)
    finishing = False
    while not (finishing and all(conn.pongs for conn in connections)):
        for key, _ in selector.select():
            if key.data is not None:
                if not key.data.read():
                    return 1  # the server went away before we were told to finish
                continue
            line = sys.stdin.readline()
            if not line:
                return 1  # the harness went away
            assert json.loads(line)["cmd"] == "finish", line
            selector.unregister(sys.stdin)
            finishing = True
            for conn in connections:
                conn.send({"op": "ping"})
    print(json.dumps(report(connections)), flush=True)
    for conn in connections:
        conn.sock.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], int(sys.argv[2])))
