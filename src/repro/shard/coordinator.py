"""Sharded world coordinator: N worker processes, one BSP tick barrier.

:class:`ShardedWorld` is the drop-in multi-process counterpart of a
single :class:`~repro.runtime.world.GameWorld`: ``load`` distributes rows
(ids assigned in row order, exactly matching what ``spawn_many`` would
mint in one process, so a sharded run and a single-process run of the
same scenario are row-for-row comparable), ``tick`` drives the three-phase
shard protocol, ``gather_state`` reassembles the fleet-wide state for
equivalence checks, and ``subscribe_aoi`` routes a fixed-center area
subscription to every shard whose range the box overlaps (the existing
outbox/resync machinery serves it on each).

The coordinator is deliberately thin: it never touches row contents, it
only forwards opaque zlib+crc32 frames between pipes; the workers count
the bytes they send.  :attr:`ShardTickReport.critical_path_seconds` is
the slowest worker's CPU seconds plus the coordinator's own routing CPU,
which is what a multi-core deployment's wall clock converges to and what
the gated benchmark measures — CPU seconds are scheduling-invariant, so
the gate holds even on single-core CI runners where the workers
time-slice.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.runtime.world import GameWorld
from repro.sgl.schema_gen import KEY_COLUMN
from repro.shard.spec import ShardSpec
from repro.shard.worker import worker_main

__all__ = ["ShardError", "ShardTickReport", "ShardedWorld"]


class ShardError(RuntimeError):
    """A worker reported an error or died mid-barrier."""


def _intern_keys(value: Any) -> Any:
    """Rebuild a worker's counter dict over interned key strings.

    Every reply is unpickled into fresh key strings; ``reports`` keeps the
    dicts for the life of the fleet, so without this each tick would retain
    its own copy of ~25 identical strings per worker.
    """
    if isinstance(value, dict):
        return {sys.intern(key): _intern_keys(item) for key, item in value.items()}
    return value


@dataclass(slots=True)
class ShardTickReport:
    """Fleet-wide accounting for one sharded tick."""

    tick: int
    wall_seconds: float = 0.0
    #: Coordinator CPU spent routing frames and (un)pickling pipe traffic.
    coordinator_cpu_seconds: float = 0.0
    #: Per-worker CPU (``time.process_time``) and wall seconds for all
    #: three phases, indexed by shard id.
    worker_cpu_seconds: tuple[float, ...] = ()
    worker_wall_seconds: tuple[float, ...] = ()
    #: Wire traffic: frame bytes sent across shards this tick (each byte
    #: counted once, at its sender), the rows those frames carried, ghosts
    #: installed from halo exports, and ownership transfers.
    exchange_bytes: int = 0
    exchange_rows: int = 0
    halo_rows: int = 0
    handoff_rows: int = 0
    subscription_messages: int = 0
    subscription_delta_rows: int = 0
    per_worker: tuple[dict[str, Any], ...] = ()

    @property
    def critical_path_seconds(self) -> float:
        """Slowest worker's CPU plus routing CPU — the BSP tick's length."""
        slowest = max(self.worker_cpu_seconds, default=0.0)
        return slowest + self.coordinator_cpu_seconds


@dataclass
class _Shard:
    process: multiprocessing.process.BaseProcess
    conn: Any
    shard_id: int


class ShardedWorld:
    """Coordinator owning N shard worker processes over one :class:`ShardSpec`."""

    def __init__(
        self,
        factory: Callable[[], GameWorld],
        spec: ShardSpec,
        n_shards: int,
        start_method: str | None = None,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.spec = spec
        self.n_shards = n_shards
        self.tick_count = 0
        self.reports: list[ShardTickReport] = []
        #: Observers called with the finished :class:`ShardTickReport` at
        #: the end of every :meth:`tick` (metrics collectors, tracers).
        self.tick_observers: list[Callable[[ShardTickReport], None]] = []
        #: The attached :class:`~repro.obs.collector.ShardMetrics`, if any.
        self.metrics = None
        self._closed = False
        context = multiprocessing.get_context(start_method) if start_method else multiprocessing.get_context()
        self._shards: list[_Shard] = []
        for shard_id in range(n_shards):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=worker_main,
                args=(child_conn, factory, spec, shard_id, n_shards),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._shards.append(_Shard(process=process, conn=parent_conn, shard_id=shard_id))

    # -- lifecycle -----------------------------------------------------------------------

    def __enter__(self) -> "ShardedWorld":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                shard.conn.send(("STOP",))
            except (BrokenPipeError, OSError):
                pass
        for shard in self._shards:
            try:
                if shard.conn.poll(2.0):
                    shard.conn.recv()
            except (EOFError, OSError):
                pass
            shard.conn.close()
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():
                shard.process.terminate()
                shard.process.join(timeout=2.0)

    def _request(self, shard: _Shard, message: tuple) -> tuple:
        shard.conn.send(message)
        try:
            reply = shard.conn.recv()
        except EOFError as exc:
            raise ShardError(f"shard {shard.shard_id} died mid-request") from exc
        if reply[0] == "ERR":
            raise ShardError(f"shard {shard.shard_id}: {reply[1]}")
        return reply

    def _broadcast(self, messages: Sequence[tuple]) -> list[tuple]:
        """Send one message per shard, then collect every reply (barrier)."""
        for shard, message in zip(self._shards, messages):
            shard.conn.send(message)
        replies = []
        for shard in self._shards:
            try:
                reply = shard.conn.recv()
            except EOFError as exc:
                raise ShardError(f"shard {shard.shard_id} died mid-barrier") from exc
            if reply[0] == "ERR":
                raise ShardError(f"shard {shard.shard_id}: {reply[1]}")
            replies.append(reply)
        return replies

    # -- bootstrap -----------------------------------------------------------------------

    def load(self, rows_by_class: dict[str, Sequence[dict[str, Any]]]) -> int:
        """Assign ids in row order and distribute rows to their owners.

        Partitioned classes go to the shard owning their axis value;
        replicated classes are loaded identically everywhere (static
        reference data — effects on them apply on shard 0 only).
        """
        per_shard: list[dict[str, list[dict[str, Any]]]] = [
            {} for _ in range(self.n_shards)
        ]
        total = 0
        for class_name, rows in rows_by_class.items():
            partitioned = class_name in self.spec.partitioned_classes
            for object_id, row in enumerate(rows):
                stamped = {KEY_COLUMN: object_id, **row}
                total += 1
                if partitioned:
                    owner = self.spec.shard_of(
                        float(stamped[self.spec.axis_column]), self.n_shards
                    )
                    per_shard[owner].setdefault(class_name, []).append(stamped)
                else:
                    for shard_rows in per_shard:
                        shard_rows.setdefault(class_name, []).append(stamped)
        self._broadcast([("LOAD", per_shard[s.shard_id]) for s in self._shards])
        # Bootstrap one halo exchange so the *first* tick already sees
        # ghosts of boundary rows — without it, cross-boundary interactions
        # would be silently missed once at startup.
        replies = self._broadcast([("ADOPT", [])] * self.n_shards)
        ghost_inbox: list[list[bytes]] = [[] for _ in range(self.n_shards)]
        for reply in replies:
            for dest, frame in reply[1].items():
                ghost_inbox[dest].append(frame)
        self._broadcast([("GHOSTS", ghost_inbox[s.shard_id]) for s in self._shards])
        return total

    def subscribe_aoi(
        self,
        name: str,
        table: str,
        radius: float,
        center: tuple[float, float],
        dims: tuple[str, str] = ("x", "y"),
    ) -> list[int]:
        """Route a fixed-center AOI subscription to every overlapping shard.

        The axis extent of the closed box decides the serving shards
        (:meth:`ShardSpec.shards_for_span`, the same cut search that
        decides row ownership); a box spanning a boundary is simply
        registered on both sides — each shard streams deltas for the rows
        *it* owns, and a handoff shows up as a delete from one stream plus
        an insert on the other, which is exactly what the client would see
        from a single-process world too.
        """
        axis_index = dims.index(self.spec.axis_column) if self.spec.axis_column in dims else 0
        low = center[axis_index] - radius
        high = center[axis_index] + radius
        owners = self.spec.shards_for_span(low, high, self.n_shards)
        subscription_ids = []
        for shard_id in owners:
            shard = self._shards[shard_id]
            reply = self._request(
                shard, ("SUBSCRIBE", name, table, radius, tuple(dims), tuple(center))
            )
            subscription_ids.append(reply[1])
        return subscription_ids

    # -- observability -------------------------------------------------------------------

    def attach_metrics(self, registry=None):
        """Attach a shard-aware metrics collector fed from every sharded tick.

        Creates a :class:`~repro.obs.collector.ShardMetrics` over
        *registry* and registers it as a tick observer.  Fleet-level
        series (critical path, coordinator CPU, wall clock) carry no
        labels; every per-worker counter from
        :attr:`ShardTickReport.per_worker` — exchange bytes/rows, halo and
        handoff rows, worker CPU, per-phase seconds — exports under a
        ``shard`` label, so a single scrape of the coordinator's registry
        reconstructs (and can be cross-checked against) the fleet totals.
        Idempotent: calling again returns the same collector.
        """
        if self.metrics is not None:
            return self.metrics
        from repro.obs.collector import ShardMetrics

        self.metrics = ShardMetrics(registry)
        self.tick_observers.append(self.metrics.observe)
        return self.metrics

    def attach_tracer(self, tracer=None):
        """Attach a tracer: one Perfetto track per worker + the coordinator."""
        if tracer is None:
            from repro.obs.tracing import TickTracer

            tracer = TickTracer()
        self.tick_observers.append(tracer.observe_shard)
        return tracer

    # -- the sharded tick ----------------------------------------------------------------

    def tick(self) -> ShardTickReport:
        """One BSP tick: TICK → route handoffs → route halo → counters."""
        self.tick_count += 1
        tick = self.tick_count
        wall0 = time.perf_counter()
        cpu0 = time.process_time()

        # Phase 1: everyone ticks; replies carry handoff frames by dest.
        replies = self._broadcast([("TICK", tick)] * self.n_shards)
        handoff_inbox: list[list[bytes]] = [[] for _ in range(self.n_shards)]
        for reply in replies:
            for dest, frame in reply[1].items():
                handoff_inbox[dest].append(frame)

        # Phase 2: adopt handoffs, collect halo exports.
        replies = self._broadcast(
            [("ADOPT", handoff_inbox[s.shard_id]) for s in self._shards]
        )
        ghost_inbox: list[list[bytes]] = [[] for _ in range(self.n_shards)]
        for reply in replies:
            for dest, frame in reply[1].items():
                ghost_inbox[dest].append(frame)

        # Phase 3: deliver ghosts, collect per-worker counters.
        replies = self._broadcast(
            [("GHOSTS", ghost_inbox[s.shard_id]) for s in self._shards]
        )
        counters = sorted(
            (_intern_keys(reply[1]) for reply in replies), key=lambda c: c["shard_id"]
        )

        report = ShardTickReport(
            tick=tick,
            wall_seconds=time.perf_counter() - wall0,
            coordinator_cpu_seconds=time.process_time() - cpu0,
            worker_cpu_seconds=tuple(c["cpu_seconds"] for c in counters),
            worker_wall_seconds=tuple(c["wall_seconds"] for c in counters),
            exchange_bytes=sum(c["exchange_bytes"] for c in counters),
            exchange_rows=sum(c["exchange_rows"] for c in counters),
            halo_rows=sum(c["halo_rows"] for c in counters),
            handoff_rows=sum(c["handoff_rows"] for c in counters),
            subscription_messages=sum(c.get("subscription_messages", 0) for c in counters),
            subscription_delta_rows=sum(
                c.get("subscription_delta_rows", 0) for c in counters
            ),
            per_worker=tuple(counters),
        )
        self.reports.append(report)
        for observer in self.tick_observers:
            observer(report)
        return report

    # -- inspection ----------------------------------------------------------------------

    def gather_state(self) -> dict[str, dict[Any, dict[str, Any]]]:
        """Fleet-wide state keyed ``class -> id -> merged row``.

        Partitioned classes merge every shard's owned rows (disjoint by
        construction); replicated classes come from shard 0.
        """
        replies = self._broadcast([("STATE", None)] * self.n_shards)
        merged: dict[str, dict[Any, dict[str, Any]]] = {}
        for shard_id, reply in enumerate(replies):
            for class_name, rows in reply[1].items():
                if class_name in self.spec.replicated_classes and shard_id != 0:
                    continue
                by_id = merged.setdefault(class_name, {})
                for row in rows:
                    by_id[row[KEY_COLUMN]] = row
        return merged
