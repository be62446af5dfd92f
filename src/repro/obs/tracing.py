"""Tick tracing as Chrome trace-event JSON (loadable in Perfetto/about:tracing).

:class:`TickTracer` turns per-tick phase timings into complete (``"ph":
"X"``) spans on a synthetic timeline: ticks are laid end to end and each
tick's phases are laid sequentially in their real execution order, so the
trace's *shape* — where a tick's time goes, which phase grew, which shared
subplan dominates the effect step — matches reality even though wall-clock
gaps between ticks are collapsed.  The synthetic clock keeps traces
deterministic for a deterministic world, which the replay tests rely on.

Inside the effect phase the tracer emits one child span per **shared
subplan materialized this tick**, labeled by its MQO plan fingerprint
(category ``mqo``), using the per-fingerprint timings the executor records
in ``Executor.last_shared_timings``.  A sharded coordinator traces each
worker under its own ``pid`` (shard id + 1; the coordinator itself is
``pid`` 0), so Perfetto renders the fleet as parallel process tracks.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Mapping

from repro.runtime.world import PHASE_FIELDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.world import GameWorld, TickReport
    from repro.shard.coordinator import ShardTickReport

__all__ = ["TickTracer"]

_COORDINATOR_PID = 0


def _us(seconds: float) -> int:
    return max(0, int(round(seconds * 1e6)))


class TickTracer:
    """Accumulates trace events; attach via :meth:`GameWorld.attach_tracer`."""

    def __init__(self, world: "GameWorld | None" = None, max_events: int = 200_000):
        self.events: list[dict[str, Any]] = []
        self.max_events = max_events
        self._world = world
        #: Synthetic clock per pid, in microseconds.
        self._clock_us: dict[int, int] = {}

    def bind(self, world: "GameWorld") -> None:
        """Late-bind the world whose executor supplies MQO subplan timings."""
        if self._world is None:
            self._world = world

    # -- recording -----------------------------------------------------------------------

    def _emit(
        self,
        name: str,
        cat: str,
        ts: int,
        dur: int,
        pid: int,
        args: Mapping[str, Any] | None = None,
    ) -> None:
        if len(self.events) >= self.max_events:
            return
        event: dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": pid,
            "tid": 0,
        }
        if args:
            event["args"] = dict(args)
        self.events.append(event)

    def observe(self, report: "TickReport") -> None:
        """Record one world tick (phases + shared-subplan spans)."""
        shared = {}
        if self._world is not None:
            shared = getattr(self._world.executor, "last_shared_timings", {}) or {}
        self.observe_phases(
            tick=report.tick,
            phases=[(phase, getattr(report, field)) for phase, field in PHASE_FIELDS],
            pid=_COORDINATOR_PID,
            args={
                "effect_assignments": report.effect_assignments,
                "state_updates_applied": report.state_updates_applied,
                "shared_subplans": report.shared_subplans,
            },
            shared_timings=shared,
        )

    def observe_phases(
        self,
        tick: int,
        phases: list[tuple[str, float]],
        pid: int = _COORDINATOR_PID,
        args: Mapping[str, Any] | None = None,
        shared_timings: Mapping[str, float] | None = None,
    ) -> None:
        """Lay one tick's phases sequentially on *pid*'s synthetic track."""
        start = self._clock_us.get(pid, 0)
        total = sum(seconds for _, seconds in phases)
        self._emit(f"tick {tick}", "tick", start, _us(total), pid, args)
        cursor = start
        for phase, seconds in phases:
            dur = _us(seconds)
            self._emit(phase, "phase", cursor, dur, pid)
            if phase == "effect" and shared_timings:
                sub_cursor = cursor
                for fingerprint, sub_seconds in shared_timings.items():
                    sub_dur = _us(sub_seconds)
                    self._emit(
                        f"subplan {fingerprint[:24]}",
                        "mqo",
                        sub_cursor,
                        sub_dur,
                        pid,
                        {"fingerprint": fingerprint},
                    )
                    sub_cursor += sub_dur
            cursor += dur
        self._clock_us[pid] = max(start + _us(total), cursor)

    def observe_shard(self, report: "ShardTickReport") -> None:
        """Record one sharded tick: coordinator track + one track per worker."""
        self.observe_phases(
            tick=report.tick,
            phases=[("critical_path", report.critical_path_seconds)],
            pid=_COORDINATOR_PID,
            args={
                "wall_seconds": report.wall_seconds,
                "exchange_bytes": report.exchange_bytes,
            },
        )
        for counters in report.per_worker:
            shard_id = int(counters.get("shard_id", 0))
            phases = counters.get("phase_seconds")
            if phases:
                tick_phases = list(phases.items())
            else:
                tick_phases = [("worker", counters.get("cpu_seconds", 0.0))]
            self.observe_phases(
                tick=report.tick,
                phases=tick_phases,
                pid=shard_id + 1,
                args={"shard": shard_id},
            )

    # -- export --------------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"traceEvents": list(self.events), "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def export(self, path: str) -> int:
        """Write the trace file; returns the number of events written."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)
        return len(self.events)
