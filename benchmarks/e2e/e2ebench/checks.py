"""Correctness checks run after the timed window.

Each returns a list of one-line problems; an empty list means the check
passed.  They are plain functions over plain data so the smoke test can
feed them a tampered replica or a truncated log and watch them fail.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Any, Mapping, Sequence

from repro.persistence import replay
from repro.runtime.world import GameWorld
from repro.service.protocol import row_key

from e2ebench.workloads import aoi_box_rows

__all__ = [
    "state_digest",
    "world_state",
    "check_replicas",
    "check_recovery",
    "check_work_is_stationary",
]


def state_digest(state: Mapping[str, Sequence[Mapping[str, Any]]]) -> str:
    """sha256 over sorted ``class/id/field=repr`` lines of every object."""
    lines = sorted(
        f"{class_name}/{row['id']!r}/{field}={row[field]!r}"
        for class_name, rows in state.items()
        for row in rows
        for field in row
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def world_state(world: GameWorld) -> dict[str, list[dict[str, Any]]]:
    return {name: world.objects(name) for name in world.class_names()}


def _multiset(rows: Sequence[Mapping[str, Any]]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for row in rows:
        key = row_key(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def check_replicas(
    replicas: Mapping[int, Sequence[Mapping[str, Any]]],
    observers: Mapping[int, Any],
    rows: Sequence[dict[str, Any]],
    radius: float,
) -> list[str]:
    """Each client-side replica, fed only by snapshot + deltas, must equal a
    fresh box query around its observer over the final *rows*."""
    by_id = {row["id"]: row for row in rows}
    problems = []
    for sub_id, observer in observers.items():
        centre = by_id[observer]
        expected = aoi_box_rows(rows, (centre["x"], centre["y"]), radius)
        if sub_id not in replicas:
            problems.append(f"subscription {sub_id}: the client holds no replica")
        elif _multiset(replicas[sub_id]) != _multiset(expected):
            problems.append(
                f"subscription {sub_id}: replica holds {len(replicas[sub_id])} rows, "
                f"a fresh query {len(expected)}, and they differ"
            )
    return problems


def check_recovery(live: GameWorld, fresh: GameWorld, wal_dir: str) -> tuple[list[str], float]:
    """Recover *wal_dir* into *fresh*; it must equal *live* table for table.

    Returns the problems and the seconds ``recover_world`` took.
    """
    started = time.perf_counter()
    try:
        # Through the module, so a traced run sees the span.
        replay.recover_world(fresh, wal_dir)
    except Exception as exc:  # any failure to recover is the finding
        return [f"recovery raised {exc!r}"], time.perf_counter() - started
    seconds = time.perf_counter() - started
    problems = []
    if fresh.tick_count != live.tick_count:
        problems.append(f"recovered tick_count {fresh.tick_count}, live {live.tick_count}")
    want, got = live.snapshot()["tables"], fresh.snapshot()["tables"]
    for name in want:
        if got.get(name) != want[name]:
            problems.append(f"recovered table {name!r} differs from the live table")
    return problems, seconds


def check_work_is_stationary(
    work_per_tick: Sequence[float], tolerance: float = 0.15, blocks: int = 10
) -> list[str]:
    """First-block and last-block median of the work done per tick (a count
    the program reports, so it repeats exactly) must agree within
    *tolerance*.  This is what catches a scenario that silently runs dry."""
    size = len(work_per_tick) // blocks
    if size == 0:
        return []
    first = statistics.median(work_per_tick[:size])
    last = statistics.median(work_per_tick[-size:])
    if abs(last - first) > tolerance * max(first, last):
        return [
            f"work per tick went from {first:g} (first block) to {last:g} (last block): "
            "the workload is not stationary"
        ]
    return []
