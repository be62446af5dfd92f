"""Crash injection: the delta log must never recover a torn tick.

The durability contract (ISSUE 6): whatever prefix of log bytes survives a
crash — a truncated tail, a bit flipped anywhere in a segment — recovery
restores exactly the **last fully committed tick** reachable from that
prefix.  Never a torn tick (a state between two tick boundaries), never
bytes from after the corruption.

Strategy: per workload, run one live world with an attached WAL once at
module scope, recording after every tick (a) the exact state of every
state table and (b) the exact byte layout of the log (per-segment sizes).
Each hypothesis example then corrupts a *copy* of the log bytes at a
random point and replays it read-only (:func:`replay_tables` never
repairs), so hundreds of corruption cases cost only a replay each.  The
byte layouts make the oracle exact: a tick is durable under a given
corruption iff every byte the tick's commit needed lies before the
corruption point.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.persistence.log import DeltaLog
from repro.persistence.replay import ReplayError, replay_tables
from repro.persistence.segment import (
    COMPRESS_THRESHOLD,
    RECORD_HEADER,
    decode_payload,
    iter_records,
)
from repro.workloads.marketplace import build_marketplace_world
from repro.workloads.rts import build_rts_world
from repro.workloads.traffic import build_traffic_world

TICKS = 12
CHECKPOINT_INTERVAL = 4

BUILDERS = {
    "rts": lambda: build_rts_world(20, seed=17, with_physics=False),
    "traffic": lambda: build_traffic_world(20, seed=23),
    "marketplace": lambda: build_marketplace_world(12, seed=11),
}
#: Per-workload segment size: small segments on traffic force mid-run
#: rolls so corruption also lands on segment headers and boundaries.
SEGMENT_BYTES = {"rts": 1 << 20, "traffic": 2048, "marketplace": 1 << 20}


class _Recorded:
    """One live run: per-tick states, per-tick log byte layouts, raw bytes."""

    def __init__(self, name: str, path: Path):
        self.name = name
        self.path = str(path)
        world = BUILDERS[name]()
        self.wal = world.attach_wal(
            self.path,
            checkpoint_interval=CHECKPOINT_INTERVAL,
            segment_max_bytes=SEGMENT_BYTES[name],
        )
        self.states: dict[int, dict[str, dict[int, dict]]] = {}
        self.states[-1] = self._state_of(world)  # baseline checkpoint state
        for _ in range(TICKS):
            world.tick()
            self.states[world.tick_count - 1] = self._state_of(world)
        self.wal.log.close()
        #: segment name → full final content.
        self.segments = {
            name: Path(self.path, name).read_bytes()
            for name in sorted(os.listdir(self.path))
        }
        self.total_bytes = sum(len(data) for data in self.segments.values())
        #: every tick-boundary record: (segment, end offset, boundary tick).
        #: A tick is durable under a corruption iff some boundary record for
        #: it lies entirely before the first dead byte.
        self.boundaries: list[tuple[str, int, int]] = []
        for name, content in self.segments.items():
            for offset, payload in iter_records(content):
                record = decode_payload(payload)
                if record.get("k") in ("c", "cp"):
                    end = offset + RECORD_HEADER.size + len(payload)
                    self.boundaries.append((name, end, record["t"]))

    def _state_of(self, world):
        return {
            name: table.snapshot() for name, table in self.wal._tables()
        }

    # -- the corruption oracle -----------------------------------------------------

    def locate(self, offset: int) -> tuple[str, int]:
        """Map a global byte offset to ``(segment name, local offset)``."""
        for name in sorted(self.segments):
            data = self.segments[name]
            if offset < len(data):
                return name, offset
            offset -= len(data)
        raise AssertionError("offset out of range")

    def dead_from(self, segment: str, local: int) -> tuple[str, int]:
        """First byte the corruption kills: the start of the record
        containing it (validation stops at that record, everything after —
        including later segments — is unreachable)."""
        starts = [off for off, _ in iter_records(self.segments[segment])]
        start = max((s for s in starts if s <= local), default=0)
        return segment, start

    def expected_tick(self, segment: str, valid_upto: int) -> int | None:
        """Last tick fully durable when *segment* is valid only up to
        *valid_upto* (and later segments are gone).  ``None``: not even the
        baseline checkpoint survives."""
        durable = [
            tick
            for name, end, tick in self.boundaries
            if name < segment or (name == segment and end <= valid_upto)
        ]
        return max(durable) if durable else None

    def corrupted_dir(self, tmpdir: str, segment: str, truncate_at: int | None,
                      flip_at: int | None) -> str:
        for name, data in self.segments.items():
            if name > segment:
                continue  # crash: later segments never hit the disk
            if name == segment:
                if truncate_at is not None:
                    data = data[:truncate_at]
                if flip_at is not None:
                    mutated = bytearray(data)
                    mutated[flip_at] ^= 0xFF
                    data = bytes(mutated)
            with open(os.path.join(tmpdir, name), "wb") as handle:
                handle.write(data)
        return tmpdir


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """``recorded(name)``: the module's one live run of workload *name*."""
    runs: dict[str, _Recorded] = {}

    def run(name: str) -> _Recorded:
        if name not in runs:
            runs[name] = _Recorded(name, tmp_path_factory.mktemp(f"wal-{name}"))
        return runs[name]

    return run


def check_recovery(run: _Recorded, directory: str, expected: int | None) -> None:
    """Replay *directory* read-only and hold it to the oracle's answer."""
    if expected is None:
        with pytest.raises(ReplayError):
            replay_tables(directory)
        return
    state = replay_tables(directory)
    assert state.tick == expected, (
        f"recovered tick {state.tick}, oracle says {expected}"
    )
    assert state.tables == run.states[expected], (
        f"recovered state at tick {state.tick} does not match the live run"
    )


# -- hypothesis: 70 examples x 3 workloads x 2 corruption modes > 200 cases ---------


@settings(max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_truncation_recovers_last_committed_tick(recorded, workload, data):
    run = recorded(workload)
    cut = data.draw(st.integers(min_value=0, max_value=run.total_bytes - 1))
    segment, local = run.locate(cut)
    tmpdir = tempfile.mkdtemp(prefix="cut-")
    try:
        run.corrupted_dir(tmpdir, segment, truncate_at=local, flip_at=None)
        check_recovery(run, tmpdir, run.expected_tick(segment, local))
    finally:
        shutil.rmtree(tmpdir)


@settings(max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_bit_flip_recovers_last_committed_tick(recorded, workload, data):
    run = recorded(workload)
    at = data.draw(st.integers(min_value=0, max_value=run.total_bytes - 1))
    segment, local = run.locate(at)
    dead_segment, dead_at = run.dead_from(segment, local)
    tmpdir = tempfile.mkdtemp(prefix="flip-")
    try:
        run.corrupted_dir(tmpdir, segment, truncate_at=None, flip_at=local)
        check_recovery(run, tmpdir, run.expected_tick(dead_segment, dead_at))
    finally:
        shutil.rmtree(tmpdir)


# -- deterministic corner cases -----------------------------------------------------


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_untouched_log_recovers_final_tick(recorded, workload):
    run = recorded(workload)
    state = replay_tables(run.path)
    assert state.tick == TICKS - 1
    assert state.tables == run.states[TICKS - 1]
    # Deflate earns its keep: a commit record large enough to be compressed
    # takes at most half the bytes of the JSON it encodes.
    compressed = 0
    for content in run.segments.values():
        for _, payload in iter_records(content):
            record = decode_payload(payload)
            raw = len(json.dumps(record, separators=(",", ":"), default=repr))
            if record.get("k") == "c" and raw >= COMPRESS_THRESHOLD:
                compressed += 1
                assert raw >= 2 * len(payload), (record["t"], raw, len(payload))
    assert compressed > 0


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_truncation_inside_record_header(recorded, workload):
    """A crash can leave just a few header bytes of the next record."""
    run = recorded(workload)
    last = sorted(run.segments)[-1]
    starts = [off for off, _ in iter_records(run.segments[last])]
    cut = starts[-1] + RECORD_HEADER.size - 1  # mid-header of the last record
    tmpdir = tempfile.mkdtemp(prefix="hdr-")
    try:
        run.corrupted_dir(tmpdir, last, truncate_at=cut, flip_at=None)
        check_recovery(run, tmpdir, run.expected_tick(last, cut))
    finally:
        shutil.rmtree(tmpdir)


def test_missing_middle_segment_stops_the_prefix(recorded):
    """A gap in the segment chain must end the valid prefix — splicing two
    disjoint histories would be silent corruption."""
    run = recorded("traffic")  # small segments: several files
    names = sorted(run.segments)
    assert len(names) >= 3, "traffic run should have rolled segments"
    tmpdir = tempfile.mkdtemp(prefix="gap-")
    try:
        for name in names:
            if name == names[len(names) // 2]:
                continue  # drop a middle segment
            with open(os.path.join(tmpdir, name), "wb") as handle:
                handle.write(run.segments[name])
        state = replay_tables(tmpdir)
        # Only ticks durable before the dropped segment may be served.
        dropped = names[len(names) // 2]
        expected = run.expected_tick(dropped, 0)
        assert expected is not None and state.tick == expected
        assert state.tables == run.states[expected]
    finally:
        shutil.rmtree(tmpdir)


def test_reattach_repairs_and_resumes(recorded):
    """The full crash-restart loop: corrupt, re-attach (repairing), tick on."""
    run = recorded("rts")
    tmpdir = tempfile.mkdtemp(prefix="resume-")
    try:
        cut = run.total_bytes * 2 // 3
        segment, local = run.locate(cut)
        run.corrupted_dir(tmpdir, segment, truncate_at=local, flip_at=None)
        expected = run.expected_tick(segment, local)
        assert expected is not None

        world = BUILDERS["rts"]()
        wal = world.attach_wal(tmpdir, checkpoint_interval=CHECKPOINT_INTERVAL)
        assert world.tick_count == expected + 1
        assert {n: t.snapshot() for n, t in wal._tables()} == run.states[expected]

        world.tick()  # the log accepts appends again after repair
        reloaded = replay_tables(tmpdir)
        assert reloaded.tick == expected + 1
        world.detach_wal()
    finally:
        shutil.rmtree(tmpdir)


def test_double_corruption_only_first_counts(recorded):
    run = recorded("rts")
    tmpdir = tempfile.mkdtemp(prefix="double-")
    try:
        a, b = run.total_bytes // 3, run.total_bytes * 2 // 3
        seg_a, local_a = run.locate(a)
        seg_b, local_b = run.locate(b)
        run.corrupted_dir(tmpdir, seg_a, truncate_at=None, flip_at=local_a)
        if seg_b == seg_a and os.path.exists(os.path.join(tmpdir, seg_b)):
            with open(os.path.join(tmpdir, seg_b), "r+b") as handle:
                handle.seek(local_b)
                byte = handle.read(1)
                handle.seek(local_b)
                handle.write(bytes([byte[0] ^ 0xFF]))
        dead_segment, dead_at = run.dead_from(seg_a, local_a)
        check_recovery(run, tmpdir, run.expected_tick(dead_segment, dead_at))
    finally:
        shutil.rmtree(tmpdir)


def test_repair_truncates_in_place(recorded):
    """DeltaLog(repair=True) physically truncates the torn tail so the next
    writer appends to a clean file."""
    run = recorded("rts")
    tmpdir = tempfile.mkdtemp(prefix="repair-")
    try:
        cut = run.total_bytes - 5  # tear the final record
        segment, local = run.locate(cut)
        run.corrupted_dir(tmpdir, segment, truncate_at=local, flip_at=None)
        log = DeltaLog(tmpdir, repair=True)
        log.close()
        # Every byte on disk now parses: the valid prefix IS the file.
        for name in sorted(os.listdir(tmpdir)):
            content = Path(tmpdir, name).read_bytes()
            parsed = sum(
                len(p) + RECORD_HEADER.size for _, p in iter_records(content)
            )
            assert parsed == len(content)
    finally:
        shutil.rmtree(tmpdir)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
