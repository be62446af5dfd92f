"""Tests for the observability layer (``repro.obs``).

Pins down the primitives (histogram edge cases, exact Prometheus
exposition, concurrent merges), the tick wiring (``attach_metrics`` /
``attach_tracer``, structured tick logs, zeroed pre-tick counters), the
HTTP scrape endpoint, the sharded-world aggregation invariant (per-shard
counters sum to the coordinator report), and the <3% observation-overhead
gate.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import threading
import time

import pytest

from repro.engine import EngineConfig
from repro.obs import (
    CONTENT_TYPE,
    MetricError,
    MetricsRegistry,
    MetricsServer,
    PHASE_FIELDS,
    TickTracer,
    WorldMetrics,
    default_latency_buckets,
    render,
    scrape,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.runtime.debug import TickInspector
from repro.service.server import SubscriptionServer
from repro.shard import ShardSpec, ShardedWorld
from repro.workloads.rts import build_rts_world, unit_rows

WORLD_SIZE = 300.0


def shard_world_factory():
    """Module-level (picklable) factory for the sharded scrape test."""
    return build_rts_world(0, world_size=WORLD_SIZE)


# -- histogram edge cases ---------------------------------------------------------------


def test_histogram_empty():
    h = Histogram()
    assert h.count == 0 and h.sum == 0.0
    assert h.quantile(0.5) == 0.0
    assert h.quantiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    assert h.cumulative() == [0] * len(h.bounds)


def test_histogram_single_observation_is_exact():
    h = Histogram()
    h.observe(0.0123)
    # Clamping to the observed [min, max] makes one sample exact at every q.
    for q in (0.0, 0.5, 0.95, 0.99, 1.0):
        assert h.quantile(q) == pytest.approx(0.0123)


def test_histogram_overflow_bucket():
    h = Histogram(bounds=(0.001, 0.01))
    h.observe(5.0)
    h.observe(7.0)
    assert h.overflow == 2
    assert h.cumulative() == [0, 0]
    # The +Inf bucket (count) still covers them, and quantiles stay within
    # the observed range instead of escaping past the last finite bound.
    assert h.count == 2
    assert 5.0 <= h.quantile(0.5) <= 7.0
    assert h.quantile(0.99) <= 7.0


def test_histogram_quantile_monotone_and_bounded():
    rng = random.Random(7)
    h = Histogram()
    values = [rng.expovariate(1 / 0.003) for _ in range(500)]
    for value in values:
        h.observe(value)
    q = [h.quantile(x) for x in (0.5, 0.95, 0.99)]
    assert q[0] <= q[1] <= q[2]
    assert min(values) <= q[0] and q[2] <= max(values)


def test_histogram_rejects_bad_bounds_and_quantiles():
    with pytest.raises(MetricError):
        Histogram(bounds=())
    with pytest.raises(MetricError):
        Histogram(bounds=(1.0, 0.5))
    with pytest.raises(MetricError):
        Histogram().quantile(1.5)


def test_default_buckets_are_a_log_ladder():
    buckets = default_latency_buckets()
    assert buckets[0] == pytest.approx(1e-6)
    assert all(b2 == pytest.approx(b1 * 2) for b1, b2 in zip(buckets, buckets[1:]))
    assert buckets[-1] > 10.0  # covers multi-second stalls before overflow


def test_counter_and_gauge_semantics():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(MetricError):
        c.inc(-1)
    g = Gauge()
    g.set(10)
    g.inc(-3)
    assert g.value == 7.0


# -- registry declaration and exposition ------------------------------------------------


def test_registry_rejects_invalid_and_conflicting_declarations():
    registry = MetricsRegistry()
    with pytest.raises(MetricError):
        registry.counter("0bad")
    with pytest.raises(MetricError):
        registry.counter("ok_total", labels=("0bad",))
    registry.counter("dual", labels=("a",))
    with pytest.raises(MetricError):
        registry.gauge("dual", labels=("a",))  # kind mismatch
    with pytest.raises(MetricError):
        registry.counter("dual", labels=("b",))  # label mismatch
    with pytest.raises(MetricError):
        registry.counter("dual", labels=("a",)).labels(b="1")  # wrong label set


def test_prometheus_exposition_exact():
    registry = MetricsRegistry()
    registry.counter("demo_requests_total", "Requests served.", labels=("shard",)).labels(
        shard="0"
    ).inc(3)
    registry.gauge("demo_temperature", "Degrees.").labels().set(2.5)
    h = registry.histogram("demo_latency_seconds", "Latency.", buckets=(0.125, 1.0)).labels()
    for value in (0.0625, 0.5, 5.0):  # exact binary floats: the sum renders cleanly
        h.observe(value)
    assert render(registry) == (
        "# HELP demo_latency_seconds Latency.\n"
        "# TYPE demo_latency_seconds histogram\n"
        'demo_latency_seconds_bucket{le="0.125"} 1\n'
        'demo_latency_seconds_bucket{le="1"} 2\n'
        'demo_latency_seconds_bucket{le="+Inf"} 3\n'
        "demo_latency_seconds_sum 5.5625\n"
        "demo_latency_seconds_count 3\n"
        "# HELP demo_requests_total Requests served.\n"
        "# TYPE demo_requests_total counter\n"
        'demo_requests_total{shard="0"} 3\n'
        "# HELP demo_temperature Degrees.\n"
        "# TYPE demo_temperature gauge\n"
        "demo_temperature 2.5\n"
    )


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("esc_total", "Help with \\ and\nnewline", labels=("name",)).labels(
        name='a"b\\c\nd'
    ).inc()
    text = render(registry)
    assert '# HELP esc_total Help with \\\\ and\\nnewline' in text
    assert 'esc_total{name="a\\"b\\\\c\\nd"} 1' in text


def test_registry_snapshot_round_trip_and_merge():
    registry = MetricsRegistry()
    registry.counter("rt_total", labels=("k",)).labels(k="a").inc(4)
    h = registry.histogram("rt_seconds", buckets=(0.1, 1.0)).labels()
    h.observe(0.05)
    h.observe(3.0)
    clone = MetricsRegistry.from_dict(registry.as_dict())
    assert render(clone) == render(registry)
    clone.merge(registry.as_dict())  # merging doubles counters and buckets
    assert clone.value("rt_total", k="a") == 8
    merged = clone.get("rt_seconds").labels()
    assert merged.count == 4 and merged.sum == pytest.approx(2 * h.sum)
    assert merged.min == h.min and merged.max == h.max


def test_registry_merge_rejects_incompatible_bucket_layouts():
    a = MetricsRegistry()
    a.histogram("mix_seconds", buckets=(0.1, 1.0)).labels().observe(0.5)
    b = MetricsRegistry()
    b.histogram("mix_seconds", buckets=(0.1,))
    snapshot = a.as_dict()
    snapshot["mix_seconds"]["buckets"] = [0.1]
    with pytest.raises(MetricError):
        b.merge(snapshot)


def test_concurrent_worker_merges_round_trip():
    """Shard-style aggregation: worker snapshots merged from many threads."""
    workers, per_worker = 8, 50
    central = MetricsRegistry()

    def worker(worker_id: int) -> None:
        local = MetricsRegistry()
        counter = local.counter("cw_ticks_total", labels=("shard",)).labels(
            shard=str(worker_id)
        )
        hist = local.histogram("cw_seconds", buckets=(0.001, 0.01, 0.1)).labels()
        for i in range(per_worker):
            counter.inc()
            hist.observe(0.0005 * (1 + i % 3))
            central.merge(local.as_dict())
            # Reset the local between ships by rebuilding it (workers ship
            # deltas in the real protocol; here each ship is cumulative, so
            # ship a fresh registry instead).
            local = MetricsRegistry()
            counter = local.counter("cw_ticks_total", labels=("shard",)).labels(
                shard=str(worker_id)
            )
            hist = local.histogram("cw_seconds", buckets=(0.001, 0.01, 0.1)).labels()

    threads = [threading.Thread(target=worker, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for w in range(workers):
        assert central.value("cw_ticks_total", shard=str(w)) == per_worker
    hist = central.get("cw_seconds").labels()
    assert hist.count == workers * per_worker


# -- world wiring -----------------------------------------------------------------------


def test_world_metrics_collects_phases_and_counters():
    world = build_rts_world(40)
    metrics = world.attach_metrics()
    assert world.attach_metrics() is metrics  # idempotent
    world.run(3)
    registry = metrics.registry
    assert registry.value("repro_ticks_total") == 3
    assert registry.value("repro_tick") == world.reports[-1].tick
    phase_family = registry.get("repro_tick_phase_seconds")
    for phase, _ in PHASE_FIELDS:
        assert phase_family.labels(phase=phase).count == 3
    expected = sum(r.effect_assignments for r in world.reports)
    assert registry.value("repro_effect_assignments_total") == expected
    quantiles = metrics.phase_quantiles()
    assert set(quantiles) == {phase for phase, _ in PHASE_FIELDS} | {"tick"}
    for entry in quantiles.values():
        assert entry["p50"] <= entry["p95"] <= entry["p99"]
    text = render(registry)
    assert "# TYPE repro_tick_phase_seconds histogram" in text
    assert 'repro_tick_phase_seconds_bucket{phase="effect",le="+Inf"} 3' in text


def test_inspector_tick_counters_zeroed_before_first_tick():
    world = build_rts_world(10)
    inspector = TickInspector(world)
    before = inspector.tick_counters()
    assert before["tick"] == -1
    assert before["effect_assignments"] == 0
    assert before["total_seconds"] == 0.0
    world.tick()
    after = inspector.tick_counters()
    assert set(before) == set(after)  # schema is stable across the first tick
    assert after["tick"] == 0
    for _, field in PHASE_FIELDS:
        assert field in before


def test_tick_reports_are_the_structured_log(tmp_path):
    world = build_rts_world(10)
    world.attach_wal(str(tmp_path))
    world.run(3)
    records = [report.as_dict() for report in world.reports]
    assert [record["tick"] for record in records] == [0, 1, 2]
    for _, field in PHASE_FIELDS:
        assert field in records[-1]
    assert json.loads(json.dumps(records)) == records
    world.rewind_to(1)
    assert [report.tick for report in world.reports] == [0]


# -- tracer -----------------------------------------------------------------------------


def test_tracer_phase_spans_follow_execution_order():
    world = build_rts_world(10)
    tracer = world.attach_tracer()
    world.run(2)
    phase_events = [e for e in tracer.events if e["cat"] == "phase"]
    assert [e["name"] for e in phase_events[: len(PHASE_FIELDS)]] == [
        phase for phase, _ in PHASE_FIELDS
    ]
    tick_events = [e for e in tracer.events if e["cat"] == "tick"]
    assert len(tick_events) == 2
    starts = [e["ts"] for e in tracer.events]
    assert starts == sorted(starts)  # synthetic single-pid clock is monotone
    payload = json.loads(tracer.to_json())
    assert payload["traceEvents"] and payload["displayTimeUnit"] == "ms"


def test_tracer_emits_mqo_subplan_spans():
    # Incremental views normally absorb the queries; force materialization
    # so shared subplans actually evaluate and get timed.
    world = build_rts_world(30, config=EngineConfig(use_incremental=False))
    tracer = TickTracer()
    world.attach_tracer(tracer)  # external tracer is late-bound to the world
    world.run(2)
    mqo = [e for e in tracer.events if e["cat"] == "mqo"]
    assert mqo, "expected shared-subplan spans under use_incremental=False"
    assert all(e["args"]["fingerprint"] for e in mqo)
    effect_spans = [
        e for e in tracer.events if e["cat"] == "phase" and e["name"] == "effect"
    ]
    # Subplan spans nest inside their tick's effect phase on the timeline.
    for span in mqo:
        parent = max(
            (e for e in effect_spans if e["ts"] <= span["ts"]),
            key=lambda e: e["ts"],
        )
        assert span["ts"] + span["dur"] <= parent["ts"] + parent["dur"]


def test_tracer_export(tmp_path):
    world = build_rts_world(10)
    tracer = world.attach_tracer()
    world.tick()
    path = tmp_path / "trace.json"
    tracer.export(str(path))
    assert json.loads(path.read_text())["traceEvents"]


# -- HTTP endpoint ----------------------------------------------------------------------


def test_metrics_server_scrape_and_health():
    async def run() -> None:
        world = build_rts_world(20)
        metrics = world.attach_metrics()
        world.run(2)
        server = MetricsServer(
            metrics.registry, health=lambda: {"tick": world.tick_count}
        )
        await server.start()
        assert server.started
        try:
            status, body = await scrape(*server.address)
            assert status == 200
            assert "repro_ticks_total 2" in body
            assert 'repro_tick_phase_seconds_bucket{phase="flush"' in body
            status, body = await scrape(*server.address, "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok", "tick": 2}
            status, _ = await scrape(*server.address, "/missing")
            assert status == 404
            # Non-GET methods are rejected with 405.
            reader, writer = await asyncio.open_connection(*server.address)
            writer.write(b"POST /metrics HTTP/1.0\r\n\r\n")
            await writer.drain()
            head = await reader.readline()
            assert b"405" in head
            writer.close()
        finally:
            await server.stop()
        assert not server.started

    asyncio.run(run())


def test_metrics_server_rides_along_subscription_server():
    async def run() -> None:
        world = build_rts_world(20)
        metrics = world.attach_metrics()
        server = SubscriptionServer(
            world, metrics_server=MetricsServer(metrics.registry)
        )
        await server.start()
        try:
            await server.step()
            status, body = await scrape(*server.metrics_server.address)
            assert status == 200 and "repro_ticks_total 1" in body
        finally:
            await server.stop()
        assert not server.metrics_server.started

    asyncio.run(run())


def test_content_type_is_prometheus_text():
    assert CONTENT_TYPE.startswith("text/plain; version=0.0.4")


# -- sharded aggregation ----------------------------------------------------------------


def test_sharded_scrape_matches_coordinator_report():
    """Acceptance: a 2-worker fleet serves a scrape whose per-shard counters
    sum exactly to the coordinator's ``ShardTickReport`` totals."""
    spec = ShardSpec(
        axis_column="x",
        world_min=0.0,
        world_max=WORLD_SIZE,
        halo_width=12.0,
        partitioned_classes=("Unit",),
    )
    with ShardedWorld(shard_world_factory, spec, 2) as world:
        metrics = world.attach_metrics()
        assert world.attach_metrics() is metrics
        tracer = world.attach_tracer()
        world.load({"Unit": list(unit_rows(160, world_size=WORLD_SIZE, seed=29))})
        for _ in range(3):
            world.tick()

        async def run() -> str:
            server = MetricsServer(metrics.registry)
            await server.start()
            try:
                status, body = await scrape(*server.address)
                assert status == 200
                return body
            finally:
                await server.stop()

        text = asyncio.run(run())
        reports = world.reports

    def shard_series(name: str) -> dict[str, float]:
        out = {}
        for line in text.splitlines():
            if line.startswith(name + "{"):
                labels, value = line[len(name):].split(" ")
                out[labels.split('"')[1]] = float(value)
        return out

    assert set(shard_series("repro_shard_exchange_bytes_total")) == {"0", "1"}
    for metric, field in (
        ("repro_shard_exchange_bytes_total", "exchange_bytes"),
        ("repro_shard_exchange_rows_total", "exchange_rows"),
        ("repro_shard_halo_rows_total", "halo_rows"),
    ):
        assert sum(shard_series(metric).values()) == sum(
            getattr(r, field) for r in reports
        ), metric
    per_shard_cpu = shard_series("repro_shard_cpu_seconds_total")
    for shard, total in per_shard_cpu.items():
        expected = sum(r.worker_cpu_seconds[int(shard)] for r in reports)
        assert total == pytest.approx(expected)
    critical = [
        float(line.split(" ")[1])
        for line in text.splitlines()
        if line.startswith("repro_shard_critical_path_seconds_total ")
    ]
    assert critical[0] == pytest.approx(sum(r.critical_path_seconds for r in reports))
    assert "repro_shard_ticks_total 3" in text
    # Per-worker phase histograms populated for both shards...
    assert 'repro_shard_tick_phase_seconds_bucket{shard="0",phase="effect",le="+Inf"} 3' in text
    assert 'repro_shard_tick_phase_seconds_bucket{shard="1",phase="effect",le="+Inf"} 3' in text
    # ...and the tracer rendered the fleet as parallel pid tracks.
    pids = {e["pid"] for e in tracer.events}
    assert pids == {0, 1, 2}


# -- overhead gate ----------------------------------------------------------------------


def test_metrics_observation_overhead_under_3_percent():
    """ISSUE 10 gate: feeding a TickReport into the registry must cost
    <3% of a median tick. Measured directly — N observe() calls against the
    median tick time of the gated rts workload size."""
    world = build_rts_world(150)
    world.tick()  # warm caches before timing
    tick_samples = []
    for _ in range(10):
        start = time.perf_counter()
        world.tick()
        tick_samples.append(time.perf_counter() - start)
    median_tick = statistics.median(tick_samples)

    metrics = WorldMetrics()
    report = world.reports[-1]
    rounds = 300
    start = time.perf_counter()
    for _ in range(rounds):
        metrics.observe(report)
    per_observe = (time.perf_counter() - start) / rounds
    assert per_observe < 0.03 * median_tick, (
        f"observe() cost {per_observe * 1e6:.1f}µs vs median tick "
        f"{median_tick * 1e3:.2f}ms ({per_observe / median_tick:.1%})"
    )
