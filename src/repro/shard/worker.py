"""Shard worker: one process owning one spatial slice of the world.

Each worker runs a full single-process :class:`~repro.runtime.world.GameWorld`
— batch path, incremental views, MQO, index advisor, kernels, fixpoint
and subscriptions all compose unchanged — over the rows it owns plus
short-lived **ghost** replicas of boundary rows received from its
neighbours.  One sharded tick is three phases, driven by the coordinator
(a bulk-synchronous barrier between each):

1. ``TICK`` — install the ghosts buffered at the end of the previous
   tick, run ``world.tick()`` (the effect-step hook removes the ghosts
   between the effect and update steps and drops effects aimed at targets
   this shard does not own — so every (actor, target) effect is applied
   exactly once fleet-wide, on the target's owner), then run the cached
   :class:`~repro.engine.algebra.Exchange` handoff plan and release rows
   whose updated position left the shard.  Replies with the handoff
   frames, one per destination shard.
2. ``ADOPT`` — adopt handoff rows routed from other shards, then run the
   halo-strip plans over the *post-adoption* owned set (a row that just
   arrived near a boundary must be in the export; a row that just left
   must not) and reply with the ghost frames.
3. ``GHOSTS`` — buffer the routed ghost rows for the next tick, drain the
   local subscription outboxes, stamp the exchange counters onto the
   tick's :class:`~repro.runtime.world.TickReport` and reply with the
   per-tick counter dict.

All row shipping uses the zlib+crc32 frames from :mod:`repro.shard.wire`;
the reported ``exchange_bytes`` are the frame bytes this worker *sent*,
so summing over workers counts each byte exactly once.  Per-phase CPU is
measured with ``time.process_time`` — immune to the time-slicing that
wall clocks suffer when more workers than cores run — which is what the
benchmark's critical-path speedup is computed from.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Any, Callable

from repro.runtime.world import GameWorld
from repro.service.subscriptions import Session
from repro.sgl.schema_gen import KEY_COLUMN
from repro.shard.plans import ShardPlanSet
from repro.shard.spec import ShardSpec
from repro.shard.wire import frame_rows, unframe_rows

__all__ = ["ShardWorker", "worker_main"]


class ShardWorker:
    """The in-process half of a shard: owns a world slice, runs tick phases."""

    def __init__(self, world: GameWorld, spec: ShardSpec, shard_id: int, n_shards: int):
        self.world = world
        self.spec = spec
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.cuts = spec.cuts(n_shards)
        self.plans = ShardPlanSet(spec, shard_id, n_shards, spec.halo_width)
        #: Ghost rows received last tick, installed at the next TICK phase.
        self._pending_ghosts: dict[str, list[dict[str, Any]]] = {}
        #: Ids of ghosts currently installed (removed by the hook mid-tick).
        self._ghost_ids: dict[str, set[Any]] = {}
        self._sessions: dict[str, Session] = {}
        self._counters: dict[str, Any] = self._fresh_counters(0)
        self._cpu = 0.0
        self._wall = 0.0
        world.effect_step_hook = self._effect_step_hook

    # -- bootstrap -----------------------------------------------------------------------

    def load(self, rows_by_class: dict[str, list[dict[str, Any]]]) -> int:
        """Adopt pre-assigned rows (ids included) into the local world."""
        adopted = 0
        for class_name, rows in rows_by_class.items():
            for row in rows:
                self.world.adopt(class_name, row)
                adopted += 1
        return adopted

    def subscribe(
        self,
        session_name: str,
        table: str,
        radius: float,
        dims: tuple[str, ...],
        center: tuple[float, ...],
    ) -> int:
        """Register a fixed-center AOI subscription served by this shard."""
        session = self._sessions.get(session_name)
        if session is None:
            session = self.world.subscriptions.connect(session_name)
            self._sessions[session_name] = session
        return self.world.subscriptions.subscribe_aoi(
            session, table, radius=radius, dims=dims, center=center
        )

    def state(self, class_names: list[str] | None = None) -> dict[str, list[dict[str, Any]]]:
        """Merged owned rows per class (no ghosts are installed between ticks)."""
        names = class_names or list(
            self.spec.partitioned_classes + self.spec.replicated_classes
        )
        return {name: self.world.objects(name) for name in names}

    # -- tick phases ---------------------------------------------------------------------

    @staticmethod
    def _fresh_counters(tick: int) -> dict[str, Any]:
        return {
            "tick": tick,
            "halo_rows": 0,
            "handoff_rows": 0,
            "exchange_rows": 0,
            "exchange_bytes": 0,
        }

    def tick_phase(self, tick: int) -> dict[int, bytes]:
        """Phase 1: ghosts in, full local tick, handoffs out."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self._counters = self._fresh_counters(tick)
        halo_in = self._install_ghosts()
        self.world.tick()
        handoff_frames, handoff_rows = self._detect_handoffs(tick)
        self._counters["halo_rows"] = halo_in
        self._counters["handoff_rows"] = handoff_rows
        self._counters["exchange_rows"] = handoff_rows
        self._counters["exchange_bytes"] = sum(len(f) for f in handoff_frames.values())
        self._cpu = time.process_time() - cpu0
        self._wall = time.perf_counter() - wall0
        return handoff_frames

    def adopt_phase(self, frames: list[bytes]) -> dict[int, bytes]:
        """Phase 2: adopt routed handoffs, export post-adoption halo strips."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        adopted = 0
        for frame in frames:
            _tick, rows_by_class = unframe_rows(frame)
            adopted += self.load(rows_by_class)
        self._counters["handoff_in"] = adopted
        halo_frames, halo_rows = self._export_halo(self._counters["tick"])
        self._counters["exchange_rows"] += halo_rows
        self._counters["exchange_bytes"] += sum(len(f) for f in halo_frames.values())
        self._cpu += time.process_time() - cpu0
        self._wall += time.perf_counter() - wall0
        return halo_frames

    def ghost_phase(self, frames: list[bytes]) -> dict[str, Any]:
        """Phase 3: buffer next tick's ghosts, drain outboxes, report counters."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        pending: dict[str, list[dict[str, Any]]] = {}
        for frame in frames:
            _tick, rows_by_class = unframe_rows(frame)
            for class_name, rows in rows_by_class.items():
                pending.setdefault(class_name, []).extend(rows)
        self._pending_ghosts = pending
        drained = sum(len(session.take()) for session in self._sessions.values())
        self._maybe_resize_halo()
        self._cpu += time.process_time() - cpu0
        self._wall += time.perf_counter() - wall0

        report = self.world.reports[-1] if self.world.reports else None
        # Nothing in this process reads older reports; the coordinator's
        # ShardTickReport history is the fleet's record of the window.
        del self.world.reports[:-1]
        counters = dict(self._counters)
        counters.update(
            cpu_seconds=self._cpu,
            wall_seconds=self._wall,
            shard_id=self.shard_id,
            drained_messages=drained,
        )
        if report is not None:
            # Stamp the exchange counters onto the world's own TickReport so
            # the in-worker TickInspector shows them like any other phase.
            report.exchange_bytes = counters["exchange_bytes"]
            report.exchange_rows = counters["exchange_rows"]
            report.halo_rows = counters["halo_rows"]
            report.handoff_rows = counters["handoff_rows"]
            counters.update(
                tick_seconds=report.total_seconds,
                effect_assignments=report.effect_assignments,
                subscription_messages=report.subscription_messages,
                subscription_delta_rows=report.subscription_delta_rows,
                # Per-phase seconds ride along so the coordinator's metrics
                # collector can export shard-labeled phase histograms and
                # the tracer can render one Perfetto track per worker.
                phase_seconds={
                    "effect": report.effect_step_seconds,
                    "update": report.update_step_seconds,
                    "reactive": report.reactive_seconds,
                    "flush": report.flush_seconds,
                    "persist": report.persist_seconds,
                    "advisor": report.advisor_seconds,
                },
            )
        return counters

    # -- internals -----------------------------------------------------------------------

    def _owns_target(self, class_name: str, target_id: Any) -> bool:
        if class_name not in self.spec.partitioned_classes:
            # Replicated classes are reference data; their (rare) effects
            # apply on shard 0 only so they are not multiplied per shard.
            return self.shard_id == 0
        ghosts = self._ghost_ids.get(class_name)
        return not ghosts or target_id not in ghosts

    def _effect_step_hook(self, store, transactions) -> None:
        # Ghosts exist only for the effect step: remove them before the
        # update step, reactive dispatch and the subscription flush, so
        # nothing downstream ever sees a replica.  Their same-tick
        # insert+delete also nets to zero in every change-log cursor.
        for class_name, ids in self._ghost_ids.items():
            for object_id in ids:
                self.world.destroy(class_name, object_id)
        self._ghost_ids = {}
        store.retain(self._owns_target)

    def _install_ghosts(self) -> int:
        installed = 0
        ghost_ids: dict[str, set[Any]] = {}
        for class_name, rows in self._pending_ghosts.items():
            ids = ghost_ids.setdefault(class_name, set())
            for row in rows:
                object_id = row[KEY_COLUMN]
                if self.world.get_object(class_name, object_id) is not None:
                    continue  # raced with a handoff: already owned here
                self.world.adopt(class_name, row)
                ids.add(object_id)
                installed += 1
        self._ghost_ids = ghost_ids
        self._pending_ghosts = {}
        return installed

    def _detect_handoffs(self, tick: int) -> tuple[dict[int, bytes], int]:
        """Run the Exchange plan per class; release and frame leavers."""
        outgoing: dict[int, dict[str, list[dict[str, Any]]]] = {}
        moved = 0
        for class_name in self.spec.partitioned_classes:
            generated = self.world._generated(class_name)
            plans = self.plans.for_class(class_name, generated.primary_table)
            result = self.world.executor.execute(plans.handoff)
            for row in result.rows:
                dest = row[plans.handoff.shard_column]
                released = self.world.release(class_name, row[KEY_COLUMN])
                if released is None:
                    continue
                outgoing.setdefault(dest, {}).setdefault(class_name, []).append(released)
                moved += 1
        frames = {
            dest: frame_rows(tick, rows_by_class)
            for dest, rows_by_class in outgoing.items()
        }
        return frames, moved

    def _export_halo(self, tick: int) -> tuple[dict[int, bytes], int]:
        """Rows near this shard's boundaries, routed to every reachable shard."""
        halo = self.plans.halo_width
        outgoing: dict[int, dict[str, list[dict[str, Any]]]] = {}
        exported = 0
        for class_name in self.spec.partitioned_classes:
            generated = self.world._generated(class_name)
            plans = self.plans.for_class(class_name, generated.primary_table)
            seen: set[Any] = set()
            for strip in plans.halo_strips:
                result = self.world.executor.execute(strip)
                for row in result.rows:
                    object_id = row[KEY_COLUMN]
                    if object_id in seen:
                        continue
                    seen.add(object_id)
                    value = row[self.spec.axis_column]
                    low_shard = bisect_right(self.cuts, value - halo)
                    high_shard = bisect_right(self.cuts, value + halo)
                    full_row = None
                    for dest in range(low_shard, high_shard + 1):
                        if dest == self.shard_id:
                            continue
                        if full_row is None:
                            full_row = self.world.get_object(class_name, object_id)
                        outgoing.setdefault(dest, {}).setdefault(class_name, []).append(
                            full_row
                        )
                        exported += 1
        frames = {
            dest: frame_rows(tick, rows_by_class)
            for dest, rows_by_class in outgoing.items()
        }
        return frames, exported

    def _maybe_resize_halo(self) -> None:
        if not self.spec.adaptive_halo:
            return
        advisor = self.world.index_advisor
        if advisor is None:
            return
        widest = 0.0
        for entry in advisor.probe_width_report().values():
            widest = max(widest, entry["max_width"])
        target = self.spec.effective_halo(widest if widest > 0 else None)
        self.plans.set_halo(target)


def worker_main(
    conn: Any,
    factory: Callable[[], GameWorld],
    spec: ShardSpec,
    shard_id: int,
    n_shards: int,
) -> None:
    """Process entry point: build the local world, serve coordinator messages.

    The message loop is strictly request/reply — the coordinator is the
    only peer — so any exception is reported back as an ``("ERR", ...)``
    reply instead of killing the process silently mid-barrier.
    """
    worker = ShardWorker(factory(), spec, shard_id, n_shards)
    while True:
        message = conn.recv()
        command = message[0]
        try:
            if command == "TICK":
                conn.send(("HANDOFFS", worker.tick_phase(message[1])))
            elif command == "ADOPT":
                conn.send(("HALO", worker.adopt_phase(message[1])))
            elif command == "GHOSTS":
                conn.send(("DONE", worker.ghost_phase(message[1])))
            elif command == "LOAD":
                conn.send(("OK", worker.load(message[1])))
            elif command == "SUBSCRIBE":
                conn.send(("OK", worker.subscribe(*message[1:])))
            elif command == "STATE":
                conn.send(("STATE", worker.state(message[1])))
            elif command == "STOP":
                conn.send(("BYE", shard_id))
                return
            else:
                conn.send(("ERR", f"unknown command {command!r}"))
        except Exception as exc:  # pragma: no cover - transported to coordinator
            import traceback

            conn.send(("ERR", f"{exc!r}\n{traceback.format_exc()}"))
