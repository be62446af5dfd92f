"""TickReport → registry collectors: the glue the tick loop calls.

:class:`WorldMetrics` observes one :class:`~repro.runtime.world.TickReport`
per tick into a :class:`~repro.obs.metrics.MetricsRegistry` — phase-latency
histograms, cumulative engine counters, last-tick gauges.
:class:`ShardMetrics` does the same for a
:class:`~repro.shard.coordinator.ShardTickReport`, exporting every
per-worker counter under a ``shard`` label so a scrape of the coordinator
can be cross-checked against the fleet totals (per-shard
``repro_shard_exchange_bytes_total`` sums to the coordinator's
``exchange_bytes``, per-shard CPU to the worker CPU columns, and the
critical-path counter to the sum of per-tick critical paths).

Both collectors only *increment* — they never read tables or plans — so
observation cost is a fixed ~30 locked adds per tick, gated far below 3%
of a tick in ``tests/test_observability.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.world import TickReport
    from repro.shard.coordinator import ShardTickReport

__all__ = ["PHASE_FIELDS", "WorldMetrics", "ShardMetrics"]

#: Tick phase label → TickReport field, in tick execution order (the tracer
#: relies on the order to lay spans out sequentially).
PHASE_FIELDS: tuple[tuple[str, str], ...] = (
    ("effect", "effect_step_seconds"),
    ("update", "update_step_seconds"),
    ("reactive", "reactive_seconds"),
    ("flush", "flush_seconds"),
    ("persist", "persist_seconds"),
    ("advisor", "advisor_seconds"),
)

#: Cumulative counter metric → TickReport field.
_COUNTER_FIELDS: tuple[tuple[str, str, str], ...] = (
    ("repro_effect_assignments_total", "effect_assignments", "Raw effect assignments produced"),
    ("repro_transactions_submitted_total", "transactions_submitted", "Transaction requests submitted"),
    ("repro_transactions_committed_total", "transactions_committed", "Transactions committed"),
    ("repro_transactions_aborted_total", "transactions_aborted", "Transactions aborted"),
    ("repro_handlers_fired_total", "handlers_fired", "Reactive handlers fired"),
    ("repro_state_updates_total", "state_updates_applied", "State updates applied"),
    ("repro_plan_cache_hits_total", "plan_cache_hits", "Executor plan-cache hits"),
    ("repro_plan_cache_misses_total", "plan_cache_misses", "Executor plan-cache misses"),
    ("repro_shared_evaluations_saved_total", "shared_evaluations_saved", "Subplan evaluations avoided by tick-wide sharing"),
    ("repro_fused_effect_rows_total", "fused_effect_rows", "Effect rows combined in-engine by sink fusion"),
    ("repro_subscription_messages_total", "subscription_messages", "Subscription messages fanned out"),
    ("repro_subscription_delta_rows_total", "subscription_delta_rows", "Delta rows and changed records streamed to subscribers"),
    ("repro_aoi_routed_rows_total", "aoi_routed_rows", "Changed rows routed through the AOI cell grids"),
    ("repro_aoi_touched_subs_total", "aoi_touched_subs", "AOI subscriptions a routed row produced a delta for"),
    ("repro_aoi_refetched_subs_total", "aoi_refetched_subs", "AOI subscriptions re-read because their observer moved"),
    ("repro_aoi_resyncs_total", "aoi_resyncs", "AOI subscriptions re-anchored after a lost change-log delta"),
    ("repro_aoi_candidate_rows_total", "aoi_candidate_rows", "Rows bounds-checked by AOI box reads"),
    ("repro_aoi_changed_records_total", "aoi_changed_records", "In-place changed records streamed to AOI subscribers"),
    ("repro_wal_bytes_total", "wal_bytes", "Bytes appended to the delta log"),
    ("repro_wal_delta_rows_total", "wal_delta_rows", "Netted row changes persisted"),
    ("repro_fixpoint_rounds_total", "fixpoint_rounds", "Semi-naive fixpoint rounds iterated"),
    ("repro_fixpoint_delta_rows_total", "fixpoint_delta_rows", "Frontier rows fed to fixpoint rounds"),
    ("repro_fixpoint_warm_restarts_total", "fixpoint_warm_restarts", "Fixpoint warm restarts from cached accumulators"),
    ("repro_fixpoint_cache_hits_total", "fixpoint_cache_hits", "Fixpoint closures served from the version cache"),
    ("repro_exchange_bytes_total", "exchange_bytes", "Cross-shard wire bytes sent"),
    ("repro_exchange_rows_total", "exchange_rows", "Rows carried by cross-shard frames"),
    ("repro_halo_rows_total", "halo_rows", "Ghost rows installed from neighbour halos"),
    ("repro_handoff_rows_total", "handoff_rows", "Rows handed off to a new owning shard"),
)

#: Per-worker counter keys re-exported with a ``shard`` label.
_SHARD_COUNTER_KEYS: tuple[tuple[str, str, str], ...] = (
    ("repro_shard_exchange_bytes_total", "exchange_bytes", "Wire bytes this shard sent"),
    ("repro_shard_exchange_rows_total", "exchange_rows", "Rows this shard shipped cross-shard"),
    ("repro_shard_halo_rows_total", "halo_rows", "Ghosts this shard installed"),
    ("repro_shard_handoff_rows_total", "handoff_rows", "Rows this shard released to new owners"),
    ("repro_shard_cpu_seconds_total", "cpu_seconds", "Per-shard worker CPU seconds (all phases)"),
    ("repro_shard_subscription_messages_total", "subscription_messages", "Messages this shard fanned out"),
)


class WorldMetrics:
    """Feeds one world's tick reports into a registry."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._phase = r.histogram(
            "repro_tick_phase_seconds", "Per-phase tick latency", labels=("phase",)
        )
        self._tick_seconds = r.histogram(
            "repro_tick_seconds", "Whole-tick latency (sum of timed phases)"
        )
        self._tick = r.gauge("repro_tick", "Index of the most recent tick").labels()
        self._ticks = r.counter("repro_ticks_total", "Ticks executed").labels()
        self._shared_subplans = r.gauge(
            "repro_shared_subplans", "Shared subplans in the current tick pipeline"
        ).labels()
        self._counters = [
            (r.counter(name, help).labels(), field)
            for name, field, help in _COUNTER_FIELDS
        ]
        self._phase_children = [
            (self._phase.labels(phase=phase), field) for phase, field in PHASE_FIELDS
        ]
        self._total_child = self._tick_seconds.labels()

    def observe(self, report: "TickReport") -> None:
        """Record one tick (installed as a tick observer by ``attach_metrics``)."""
        for child, field in self._phase_children:
            child.observe(getattr(report, field))
        self._total_child.observe(report.total_seconds)
        self._tick.set(report.tick)
        self._ticks.inc()
        self._shared_subplans.set(report.shared_subplans)
        for child, field in self._counters:
            value = getattr(report, field)
            if value:
                child.inc(value)

    def phase_quantiles(self, qs=(0.5, 0.95, 0.99)) -> dict[str, dict[str, float]]:
        """p50/p95/p99 per phase plus the whole tick."""
        out = {
            phase: child.quantiles(qs) for (child, _), (phase, _) in
            zip(self._phase_children, PHASE_FIELDS)
        }
        out["tick"] = self._total_child.quantiles(qs)
        return out


class ShardMetrics:
    """Feeds a coordinator's sharded tick reports into a registry.

    Fleet-level series carry no labels; everything sourced from
    ``ShardTickReport.per_worker`` carries ``shard="<id>"``.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._tick = r.gauge("repro_shard_tick", "Index of the most recent sharded tick").labels()
        self._ticks = r.counter("repro_shard_ticks_total", "Sharded ticks executed").labels()
        self._critical_hist = r.histogram(
            "repro_shard_critical_path_seconds",
            "Per-tick critical path: slowest worker CPU + coordinator routing CPU",
        ).labels()
        self._critical_total = r.counter(
            "repro_shard_critical_path_seconds_total",
            "Cumulative critical-path seconds across sharded ticks",
        ).labels()
        self._coordinator_cpu = r.counter(
            "repro_shard_coordinator_cpu_seconds_total",
            "Coordinator CPU spent routing frames",
        ).labels()
        self._wall = r.histogram(
            "repro_shard_tick_wall_seconds", "Sharded tick wall-clock latency"
        ).labels()
        self._shard_counters = [
            (r.counter(name, help, labels=("shard",)), key)
            for name, key, help in _SHARD_COUNTER_KEYS
        ]
        self._shard_phase = r.histogram(
            "repro_shard_tick_phase_seconds",
            "Per-shard, per-phase tick latency",
            labels=("shard", "phase"),
        )

    def observe(self, report: "ShardTickReport") -> None:
        self._tick.set(report.tick)
        self._ticks.inc()
        self._critical_hist.observe(report.critical_path_seconds)
        self._critical_total.inc(report.critical_path_seconds)
        self._coordinator_cpu.inc(report.coordinator_cpu_seconds)
        self._wall.observe(report.wall_seconds)
        for counters in report.per_worker:
            shard = str(counters.get("shard_id", "?"))
            for family, key in self._shard_counters:
                value = counters.get(key, 0)
                if value:
                    family.labels(shard=shard).inc(value)
            phases: Mapping[str, Any] | None = counters.get("phase_seconds")
            if phases:
                for phase, seconds in phases.items():
                    self._shard_phase.labels(shard=shard, phase=phase).observe(seconds)
