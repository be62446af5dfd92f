"""Tests for sharded multi-process execution (``repro.shard``).

The core property is *equivalence*: ticking a world split across N worker
processes — handoffs, halo ghosts, subscription fan-out and all — must
produce exactly the state a single-process world produces from the same
rows, tick for tick.  Around that sit unit tests for the pieces: the
shard spec's ownership arithmetic, the zlib+crc32 wire frames, the new
``ShardedScan``/``Exchange`` algebra nodes through the optimizer and
executor, the effect-ownership filter, and the world adopt/release hooks
the workers are built on.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.algebra import Exchange, Select, ShardedScan, TableScan
from repro.engine.executor import Executor
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.rules import apply_standard_rewrites, expand_sharded_scans
from repro.runtime import EffectStore
from repro.runtime.debug import TickInspector
from repro.sgl import parse_program
from repro.sgl.ir import EffectAssignment
from repro.shard import (
    ShardSpec,
    ShardedWorld,
    decode_frame,
    encode_frame,
    frame_rows,
    unframe_rows,
)
from repro.workloads.rts import build_rts_world, unit_rows

WORLD_SIZE = 300.0
N_UNITS = 240


def world_factory():
    """Module-level (picklable) factory building the empty scenario world."""
    return build_rts_world(0, world_size=WORLD_SIZE)


def scenario_spec(**overrides) -> ShardSpec:
    settings = dict(
        axis_column="x",
        world_min=0.0,
        world_max=WORLD_SIZE,
        halo_width=12.0,
        partitioned_classes=("Unit",),
    )
    settings.update(overrides)
    return ShardSpec(**settings)


def scenario_rows() -> list[dict]:
    return list(unit_rows(N_UNITS, world_size=WORLD_SIZE, seed=29))


# -- ShardSpec ownership arithmetic ------------------------------------------------------


class TestShardSpec:
    def test_cuts_and_ranges(self):
        spec = scenario_spec()
        assert spec.cuts(3) == (100.0, 200.0)
        assert spec.shard_range(0, 3) == (None, 100.0)
        assert spec.shard_range(1, 3) == (100.0, 200.0)
        assert spec.shard_range(2, 3) == (200.0, None)
        assert spec.cuts(1) == ()
        assert spec.shard_range(0, 1) == (None, None)

    def test_ownership_is_half_open(self):
        spec = scenario_spec()
        # low <= v < high: a value exactly on a cut belongs to the right side.
        assert spec.shard_of(99.999, 3) == 0
        assert spec.shard_of(100.0, 3) == 1
        assert spec.shard_of(200.0, 3) == 2
        # Out-of-world values clamp to the edge shards instead of erroring.
        assert spec.shard_of(-50.0, 3) == 0
        assert spec.shard_of(1e9, 3) == 2

    def test_shards_for_span(self):
        spec = scenario_spec()
        assert list(spec.shards_for_span(10.0, 20.0, 3)) == [0]
        assert list(spec.shards_for_span(90.0, 110.0, 3)) == [0, 1]
        assert list(spec.shards_for_span(0.0, 300.0, 3)) == [0, 1, 2]
        # A closed span ending exactly on a cut reaches the cut's owner.
        assert list(spec.shards_for_span(90.0, 100.0, 3)) == [0, 1]
        # Point spans route to the single owner, on a cut to the right side.
        assert list(spec.shards_for_span(50.0, 50.0, 3)) == [0]
        assert list(spec.shards_for_span(100.0, 100.0, 3)) == [1]
        # Out-of-extent spans route to the (unbounded) edge shards.
        assert list(spec.shards_for_span(-80.0, -10.0, 3)) == [0]
        assert list(spec.shards_for_span(400.0, 1e9, 3)) == [2]
        assert list(spec.shards_for_span(-50.0, 1e9, 3)) == [0, 1, 2]
        # One shard owns everything.
        assert list(spec.shards_for_span(-5.0, 5000.0, 1)) == [0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_span_routing_covers_every_owner(self, data):
        """Every value in a closed span ``[low, high]`` is owned by one of
        ``shards_for_span(low, high)`` — including spans that start or end
        exactly on a cut, where a second strip rule used to disagree."""
        world_min = data.draw(st.floats(-1e3, 1e3), label="world_min")
        width = data.draw(st.floats(1e-3, 1e4), label="width")
        spec = ShardSpec(world_min=world_min, world_max=world_min + width)
        n_shards = data.draw(st.integers(1, 8), label="n_shards")
        cuts = spec.cuts(n_shards)
        anywhere = st.floats(world_min - width, world_min + 2 * width)
        endpoint = st.one_of(st.sampled_from(cuts), anywhere) if cuts else anywhere
        low, high = sorted((data.draw(endpoint, label="a"), data.draw(endpoint, label="b")))
        owners = spec.shards_for_span(low, high, n_shards)
        # low == high includes (0.0, -0.0), which st.floats rejects as bounds.
        inside = data.draw(st.floats(low, high), label="inside") if low < high else low
        for value in (low, high, inside, *(cut for cut in cuts if low <= cut <= high)):
            assert spec.shard_of(value, n_shards) in owners

    def test_effective_halo(self):
        fixed = scenario_spec()
        assert fixed.effective_halo(1000.0) == fixed.halo_width
        adaptive = scenario_spec(adaptive_halo=True, halo_margin=0.25)
        # Never shrinks below the configured floor...
        assert adaptive.effective_halo(2.0) == adaptive.halo_width
        assert adaptive.effective_halo(None) == adaptive.halo_width
        # ...and grows to cover a wider observed probe, with margin.
        assert adaptive.effective_halo(40.0) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            scenario_spec(world_min=300.0, world_max=0.0)
        with pytest.raises(ValueError):
            scenario_spec(halo_width=-1.0)


# -- wire frames -------------------------------------------------------------------------


class TestWireFrames:
    def test_roundtrip_preserves_rows_exactly(self):
        rows = {"Unit": [{"id": 7, "x": 0.1 + 0.2, "name": "a"}], "Base": []}
        tick, decoded = unframe_rows(frame_rows(42, rows))
        assert tick == 42
        assert decoded == rows  # repr-faithful floats survive the frame

    def test_corruption_is_detected(self):
        frame = bytearray(encode_frame({"k": "v"}))
        frame[-1] ^= 0xFF
        with pytest.raises(ValueError):
            decode_frame(bytes(frame))

    def test_trailing_bytes_are_rejected(self):
        frame = encode_frame({"k": "v"})
        with pytest.raises(ValueError):
            decode_frame(frame + b"junk")


# -- algebra: ShardedScan and Exchange ---------------------------------------------------


class TestShardAlgebra:
    def test_sharded_scan_expands_to_range_select(self, unit_catalog):
        scan = ShardedScan("unit", "x", 25.0, 75.0)
        select = scan.to_select()
        assert isinstance(select, Select)
        assert isinstance(select.child, TableScan)
        assert scan.output_schema(unit_catalog) == TableScan("unit").output_schema(
            unit_catalog
        )
        # Executing it returns exactly the half-open slice.
        rows = Executor(unit_catalog).execute(scan).rows
        expected = [
            row
            for row in unit_catalog.table("unit").rows()
            if 25.0 <= row["x"] < 75.0
        ]
        assert len(rows) == len(expected)
        # Unbounded edges drop the comparison instead of emitting +-inf.
        assert len(Executor(unit_catalog).execute(ShardedScan("unit", "x", None, None)).rows) == 100

    def test_rewrite_pass_removes_sharded_scans(self, unit_catalog):
        def has_sharded(node):
            return isinstance(node, ShardedScan) or any(
                has_sharded(child) for child in node.children()
            )

        scan = ShardedScan("unit", "x", None, 50.0)
        rewritten = expand_sharded_scans(scan)
        assert not has_sharded(rewritten)
        assert isinstance(rewritten, Select)
        full = apply_standard_rewrites(scan, unit_catalog)
        assert not has_sharded(full)

    def test_exchange_labels_and_excludes(self, unit_catalog):
        exchange = Exchange(TableScan("unit"), "x", (50.0,))
        executor = Executor(unit_catalog)
        rows = executor.execute(exchange).rows
        assert len(rows) == 100
        for row in rows:
            assert row[Exchange.SHARD_COLUMN] == (0 if row["x"] < 50.0 else 1)
        schema = exchange.output_schema(unit_catalog)
        assert Exchange.SHARD_COLUMN in [column.name for column in schema]
        # exclude_shard keeps only the rows that LEFT the given shard.
        leavers = executor.execute(
            Exchange(TableScan("unit"), "x", (50.0,), exclude_shard=0)
        ).rows
        assert leavers and all(row["x"] >= 50.0 for row in leavers)

    def test_exchange_validates_cuts(self):
        from repro.engine.errors import PlanError

        with pytest.raises(PlanError):
            Exchange(TableScan("unit"), "x", (50.0, 25.0))

    def test_cost_model_covers_shard_nodes(self, unit_catalog):
        model = CostModel(unit_catalog)
        scan = ShardedScan("unit", "x", 0.0, 50.0)
        assert 0 < model.cardinality(scan) <= 100
        assert model.cost(scan).cost > 0
        exchange = Exchange(TableScan("unit"), "x", (50.0,), exclude_shard=0)
        # Handoff-style exchanges are estimated as a small fraction moving.
        assert model.cardinality(exchange) < model.cardinality(TableScan("unit"))
        assert model.cost(exchange).cost > model.cost(TableScan("unit")).cost


# -- effect ownership --------------------------------------------------------------------


def test_effect_store_retain_drops_unowned_targets():
    program = parse_program(
        "class Unit { state: number x = 0; effects: number damage : sum; }"
    )
    store = EffectStore({decl.name: decl for decl in program.classes})
    store.add(EffectAssignment("Unit", 1, "damage", 3))
    store.add(EffectAssignment("Unit", 2, "damage", 5))
    dropped = store.retain(lambda class_name, target_id: target_id == 1)
    assert dropped == 1
    combined = store.combine()
    assert combined.value("Unit", 1, "damage") == 3
    assert combined.value("Unit", 2, "damage") is None


# -- world adopt / release ---------------------------------------------------------------


def test_world_adopt_and_release_roundtrip():
    world = build_rts_world(3, world_size=100.0)
    released = world.release("Unit", 1)
    assert released is not None and released["id"] == 1
    assert world.get_object("Unit", 1) is None
    assert world.release("Unit", 1) is None  # already gone

    world.adopt("Unit", released)
    restored = world.get_object("Unit", 1)
    assert restored is not None
    assert {k: restored[k] for k in released} == released
    # Adoption bumps the id allocator past foreign ids: no collisions later.
    world.adopt("Unit", {**released, "id": 500})
    new_id = world.spawn("Unit", x=1.0, y=1.0)
    assert new_id > 500


def test_tick_report_exposes_exchange_counters():
    world = build_rts_world(5, world_size=100.0)
    world.tick()
    report = world.reports[-1]
    assert (report.exchange_bytes, report.halo_rows, report.handoff_rows) == (0, 0, 0)
    counters = TickInspector(world).tick_counters()
    for key in ("exchange_bytes", "exchange_rows", "halo_rows", "handoff_rows"):
        assert key in counters


# -- the sharded world itself ------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_tick_matches_single_process_exactly(n_shards):
    """Per-tick state equivalence, including tick 1 (bootstrap halo) and
    ticks where ownership handoffs occur."""
    single = world_factory()
    single.spawn_many("Unit", scenario_rows())
    handoffs = 0
    with ShardedWorld(world_factory, scenario_spec(), n_shards=n_shards) as sharded:
        loaded = sharded.load({"Unit": scenario_rows()})
        assert loaded == N_UNITS
        for _ in range(6):
            single.tick()
            report = sharded.tick()
            handoffs += report.handoff_rows
            expected = {row["id"]: row for row in single.objects("Unit")}
            assert sharded.gather_state()["Unit"] == expected
            assert report.exchange_bytes > 0  # halo traffic flows every tick
            assert report.halo_rows > 0
            assert len(report.worker_cpu_seconds) == n_shards
            assert report.critical_path_seconds > 0
    # The scenario must actually exercise ownership transfer.
    assert handoffs > 0


def test_sharded_subscriptions_serve_boundary_clients():
    with ShardedWorld(world_factory, scenario_spec(), n_shards=2) as sharded:
        sharded.load({"Unit": scenario_rows()})
        # A client box straddling the cut registers on both shards; an
        # interior one registers on exactly its owner.
        straddling = sharded.subscribe_aoi("edge", "Unit", radius=10.0, center=(150.0, 150.0))
        interior = sharded.subscribe_aoi("inner", "Unit", radius=10.0, center=(40.0, 150.0))
        assert len(straddling) == 2
        assert len(interior) == 1
        report = sharded.tick()
        assert report.subscription_messages > 0


def test_aoi_routing_reaches_the_owner_of_a_cut_value():
    """Regression: the box ``[30, 50]`` over 6 strips of ``[0, 100]`` was
    routed to shards 1 and 2 only, but ``x == 50.0`` belongs to shard 3 —
    a unit there, inside the closed box, was never streamed.  Subscriptions
    now route through ``shards_for_span``, the same cut search as
    ``shard_of``."""
    spec = ShardSpec(world_min=0.0, world_max=100.0)
    # Only the routing is under test, so no worker processes: record the
    # shards the coordinator sends SUBSCRIBE to.
    fleet = object.__new__(ShardedWorld)
    fleet.spec, fleet.n_shards = spec, 6
    fleet._shards = [SimpleNamespace(shard_id=shard_id) for shard_id in range(6)]
    routed = []

    def request(shard, message):
        routed.append(shard.shard_id)
        return ("OK", f"sub-{shard.shard_id}")

    fleet._request = request
    fleet.subscribe_aoi("box", "Unit", radius=10.0, center=(40.0, 0.0))
    assert spec.shard_of(50.0, 6) == 3
    assert routed == list(spec.shards_for_span(30.0, 50.0, 6)) == [1, 2, 3]


def test_worker_errors_surface_as_shard_errors():
    from repro.shard import ShardError

    with ShardedWorld(world_factory, scenario_spec(), n_shards=2) as sharded:
        with pytest.raises(ShardError):
            sharded.load({"NoSuchClass": [{"id": 0, "x": 1.0}]})
