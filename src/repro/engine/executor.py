"""Query execution facade.

:class:`Executor` ties the catalog, planner and physical operators together
and adds the plan cache the tick loop relies on: the same logical query is
executed at every tick (Section 4.1), so plans are compiled once and reused
until the catalog shape changes or the caller invalidates them.

Results are always row dicts regardless of execution path: when the
planner chose the columnar batch path for a subtree, its
:class:`~repro.engine.operators.batch_ops.BatchBridgeOp` root materializes
the batch back into row dicts, so ``execute`` and ``QueryResult`` are
path-agnostic.  ``cache_report`` notes which cached plans run on the batch
path.

A third path exists for *registered* queries: :meth:`Executor.register_incremental`
lowers a plan to a delta-maintained materialized view
(:mod:`repro.engine.operators.incremental`) when the planner can prove it
correct, after which ``execute`` serves the view — cached rows when no
referenced table changed, delta maintenance when the change logs cover the
churn, full re-execution otherwise.  Registration is explicit because the
view maintains a row *multiset*: callers that can observe result row order
(or need exact float reproducibility) must stay on the full paths.

Finally, the tick loop's path: :meth:`prepare_tick` takes one tick's
worth of queries at once.  On the compiled target (``use_batch``) it runs
tick-wide multi-query optimization (:mod:`repro.engine.optimizer.mqo`)
over their optimized logical plans and compiles a pipeline in which each
shared subplan is evaluated at most once per :meth:`execute_tick` call
and served to every consumer from its materialization — a
:class:`~repro.engine.batch.ColumnBatch`, built from rows once when the
shared subplan has no batch operator.  Queries that declare an
order-insensitive ⊕ combinator are additionally *sink-fused*
(:class:`~repro.engine.operators.shared.EffectSinkOp`): the pipeline
returns pre-combined per-target partials instead of one row per effect
assignment.  Shared materializations are tick-scoped — they are dropped at
every ``execute_tick`` boundary and by both invalidation entry points, so
a catalog change or mid-run replan can never serve stale shared state.
On the row path the pipeline shares nothing and fuses no sink: each query
runs its own plan and returns its rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.engine.algebra import LogicalPlan
from repro.engine.batch import ColumnBatch
from repro.engine.catalog import Catalog
from repro.engine.errors import EngineError, ExecutionError
from repro.engine.operators import (
    BatchBridgeOp,
    BatchSharedSourceOp,
    EffectSinkOp,
    IncrementalView,
    PhysicalOperator,
    fold_rows_to_partials,
)
from repro.engine.compile import KernelLowering
from repro.engine.config import EngineConfig
from repro.engine.operators.batch_ops import BatchOperator
from repro.engine.operators.shared import EffectPartial
from repro.engine.optimizer.mqo import SharedScan, TickEntry, TickPlan, build_tick_plan
from repro.engine.optimizer.planner import PlannedQuery, Planner

__all__ = ["Executor", "QueryResult", "TickQuerySpec", "TickQueryResult"]


@dataclass
class QueryResult:
    """Materialized result rows plus execution metadata."""

    rows: list[dict[str, Any]]
    runtime: float
    planned: PlannedQuery

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list[Any]:
        """Extract one column as a list (resolving unqualified names)."""
        out = []
        for row in self.rows:
            if name in row:
                out.append(row[name])
                continue
            matches = [k for k in row if k.split(".")[-1] == name]
            if len(matches) != 1:
                raise ExecutionError(f"cannot resolve column {name!r} in result")
            out.append(row[matches[0]])
        return out

    def scalar(self) -> Any:
        """Return the single value of a single-row, single-column result."""
        if len(self.rows) != 1:
            raise ExecutionError(f"expected exactly one row, got {len(self.rows)}")
        row = self.rows[0]
        if len(row) != 1:
            raise ExecutionError(f"expected exactly one column, got {list(row)}")
        return next(iter(row.values()))


@dataclass
class TickQuerySpec:
    """One query of a tick pipeline.

    ``combinator`` requests effect-sink fusion: when set (an
    order-insensitive ⊕ combinator name), :meth:`Executor.execute_tick`
    returns per-target partial accumulators instead of result rows.  The
    target/value column names default to the SGL compiler's conventions
    but are parameters so the engine stays ignorant of the SGL layer.
    """

    key: str
    plan: LogicalPlan
    combinator: str | None = None
    target_column: str = "__target__"
    value_column: str = "__value__"


@dataclass
class TickQueryResult:
    """Result of one pipeline query: rows *or* sink-fused partials."""

    key: str
    rows: list[dict[str, Any]] | None
    partials: list[EffectPartial] | None
    runtime: float
    planned: PlannedQuery


@dataclass
class _CachedPlan:
    planned: PlannedQuery
    executions: int = 0
    total_runtime: float = 0.0


class _SharedResult:
    """Tick-scoped materialization of one shared subplan."""

    __slots__ = ("rows", "batch", "seconds")

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] | None = None
        self.batch: ColumnBatch | None = None
        #: Wall seconds spent materializing (traced per MQO fingerprint).
        self.seconds = 0.0


@dataclass
class _SharedDefExec:
    """Lowered form of one shared subplan."""

    fingerprint: str
    physical: PhysicalOperator
    #: Set when the subplan lowered fully columnar: the materialization is
    #: kept as a batch and columnar consumers share its value lists.
    batch_root: BatchOperator | None
    #: Output column names of the materialization (representative aliases).
    names: tuple[str, ...]
    consumers: int


@dataclass
class _TickEntryExec:
    spec: TickQuerySpec
    planned: PlannedQuery
    physical: PhysicalOperator
    sink: EffectSinkOp | None
    shared_refs: tuple[str, ...]


@dataclass
class _TickPipeline:
    key: tuple
    entries: list[_TickEntryExec]
    shared: list[_SharedDefExec] = field(default_factory=list)
    shared_by_fp: dict[str, _SharedDefExec] = field(default_factory=dict)
    tick_plan: TickPlan | None = None


class _SharedLoweringContext:
    """Resolves :class:`SharedScan` leaves while a pipeline is lowered.

    Installed on the physical planner for the duration of
    :meth:`Executor.prepare_tick`; the produced source operators close
    over the executor's tick-scoped shared store, so materializations are
    looked up (and lazily computed) at execution time.
    """

    def __init__(self, executor: "Executor", defs: dict[str, _SharedDefExec]):
        self.executor = executor
        self.defs = defs

    def _column_renames(self, node: SharedScan, names: Sequence[str]) -> dict[str, str]:
        if not node.alias_renames:
            return {}
        out: dict[str, str] = {}
        for name in names:
            head, dot, tail = name.partition(".")
            if dot and head in node.alias_renames:
                out[name] = f"{node.alias_renames[head]}.{tail}"
        return out

    def batch_source(self, node: SharedScan) -> BatchSharedSourceOp | None:
        shared = self.defs.get(node.fingerprint)
        if shared is None:
            return None
        renames = self._column_renames(node, shared.names)
        names = tuple(renames.get(n, n) for n in shared.names)
        executor = self.executor
        fingerprint = node.fingerprint

        def fetch() -> ColumnBatch:
            return executor._shared_batch(fingerprint, renames)

        return BatchSharedSourceOp(
            node.output_schema(executor.catalog), names, fetch, fingerprint
        )


class Executor:
    """Plans and executes logical plans against a catalog, caching plans."""

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig | None = None,
        *,
        index_advisor=None,
    ):
        if config is None:
            config = EngineConfig()
        self.catalog = catalog
        self.config = config
        self.index_advisor = index_advisor
        #: Compiled kernel programs, keyed by MQO fingerprint + structural
        #: signature; owned here so catalog-shape invalidation drops them
        #: together with the cached plans that reference them.
        self._kernels: dict[Any, Any] = {}
        self.planner = Planner(
            catalog, config, index_advisor=index_advisor, kernel_cache=self._kernels
        )
        self._cache: dict[int, _CachedPlan] = {}
        #: ``id(plan) -> (plan, view)``.  The plan reference is load-bearing:
        #: it pins the id so a garbage-collected plan can never hand its id
        #: (and therefore this view) to an unrelated new plan.
        self._incremental: dict[int, tuple[LogicalPlan, IncrementalView]] = {}
        #: Final statistics of views dropped by a refresh error, so the
        #: report's counters only ever grow.
        self._dropped_views: list[dict[str, Any]] = []
        #: The compiled tick pipeline (shared-subplan DAG) and its
        #: tick-scoped materializations.
        self._tick_pipeline: _TickPipeline | None = None
        self._shared_results: dict[str, _SharedResult] = {}
        #: Plan-cache hit/miss counters (surfaced per tick via TickReport).
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        #: Sharing statistics of the most recent ``execute_tick`` call.
        self.last_tick_stats: dict[str, Any] = {}
        #: Materialization seconds per shared-subplan fingerprint for the
        #: most recent ``execute_tick`` call (consumed by the tick tracer).
        self.last_shared_timings: dict[str, float] = {}

    # -- planning ---------------------------------------------------------------------

    def prepare(self, plan: LogicalPlan, *, cache: bool = True) -> PlannedQuery:
        """Plan a query, consulting / populating the plan cache."""
        key = id(plan)
        if cache and key in self._cache:
            self.plan_cache_hits += 1
            return self._cache[key].planned
        self.plan_cache_misses += 1
        planned = self.planner.plan(plan)
        if cache:
            self._cache[key] = _CachedPlan(planned)
        return planned

    def invalidate(self, plan: LogicalPlan | None = None) -> None:
        """Drop one cached plan (and its incremental view) or everything."""
        if plan is None:
            self._cache.clear()
            self._incremental.clear()
            self._kernels.clear()
        else:
            self._cache.pop(id(plan), None)
            self._incremental.pop(id(plan), None)
        self._tick_pipeline = None
        self._shared_results.clear()

    def release_plan(self, plan: LogicalPlan) -> None:
        """Drop one plan's cache entry and incremental registration only.

        The narrow teardown for an external consumer (e.g. a subscription
        group) that owned the plan and went away: unlike
        :meth:`invalidate` it leaves the tick pipeline and shared
        materializations alone, so releasing an unrelated plan never
        forces the multi-query pipeline to recompile.
        """
        self._cache.pop(id(plan), None)
        self._incremental.pop(id(plan), None)

    def invalidate_plans(self) -> None:
        """Drop cached physical plans, keeping incremental registrations.

        Used after the catalog *shape* changed — e.g. the index advisor
        created or evicted an index — so the next ``execute`` replans
        against the new shape.  Incremental views stay: they are keyed by
        table versions, not plans, and re-find indexes lazily per refresh.
        The tick pipeline and its shared materializations are dropped too:
        both embed lowered physical plans.  Compiled kernels go with the
        plans: they bake in schema column order and index decisions, so a
        stale kernel would silently read the wrong columns.
        """
        self._cache.clear()
        self._kernels.clear()
        self._tick_pipeline = None
        self._shared_results.clear()

    def kernel_report(self) -> dict[str, Any]:
        """Kernel-compilation counters (all zero without ``use_batch``).

        ``declined`` counts plans outside the fusable grammar and is the
        sum of ``declined_by_reason``; ``errors`` counts analysis/codegen
        failures that were *not* a decline — compiler bugs that fell back
        to the row operators.
        """
        lowering = self.planner.physical_planner.kernel_lowering or KernelLowering()
        return {
            "compiled": lowering.compiled,
            "hits": lowering.hits,
            "declined": lowering.declined,
            "cached": len(self._kernels),
            "declined_by_reason": dict(lowering.declined_by_reason),
            "errors": lowering.errors,
        }

    # -- incremental registration ----------------------------------------------------

    def register_incremental(self, plan: LogicalPlan) -> bool:
        """Try to maintain *plan*'s result incrementally from table deltas.

        Returns ``True`` when the plan was lowered to a materialized view
        (subsequent :meth:`execute` calls serve the view), ``False``
        when the planner declined — non-monotonic operators, order-dependent
        aggregates, band joins — or incremental execution is disabled; the
        query then simply stays on the batch/row paths.

        Only register queries whose consumers treat the result as a row
        multiset: the view does not reproduce full-execution row order
        after churn, and float aggregates are maintained by running
        addition/subtraction (exact for ints, ±rounding error for floats).
        """
        if not self.config.use_incremental:
            return False
        key = id(plan)
        if key in self._incremental:
            return True
        planned = self.prepare(plan)
        view = self.planner.build_incremental(planned.optimized)
        if view is None:
            return False
        self._incremental[key] = (plan, view)
        return True

    def incremental_view(self, plan: LogicalPlan) -> IncrementalView | None:
        """The registered view for *plan*, if any (inspection/tests)."""
        record = self._incremental.get(id(plan))
        return record[1] if record is not None else None

    # -- execution ----------------------------------------------------------------------

    def execute(self, plan: LogicalPlan, *, cache: bool = True) -> QueryResult:
        """Plan (or reuse a cached plan for) and execute *plan*."""
        planned = self.prepare(plan, cache=cache)
        rows = self._refresh_incremental(plan)
        if rows is not None:
            view_rows, runtime = rows
            if cache and id(plan) in self._cache:
                entry = self._cache[id(plan)]
                entry.executions += 1
                entry.total_runtime += runtime
            return QueryResult(rows=view_rows, runtime=runtime, planned=planned)
        return self.execute_planned(planned, cache_key=id(plan) if cache else None)

    def _refresh_incremental(
        self, plan: LogicalPlan
    ) -> tuple[list[dict[str, Any]], float] | None:
        """Serve *plan* from its incremental view, or ``None`` to fall back.

        A view that cannot even full-rebuild — including catalog-shape
        casualties like a dropped index — is dropped for good; the query
        falls through to the physical plan.
        """
        record = self._incremental.get(id(plan))
        if record is None:
            return None
        view = record[1]
        start = time.perf_counter()
        try:
            rows = view.refresh()
        except EngineError as exc:
            stats = self._view_stats(id(plan), view, "dropped")
            stats.update(reason=type(exc).__name__, message=str(exc))
            self._dropped_views.append(stats)
            self._incremental.pop(id(plan), None)
            return None
        return rows, time.perf_counter() - start

    def execute_planned(
        self, planned: PlannedQuery, cache_key: int | None = None
    ) -> QueryResult:
        start = time.perf_counter()
        rows = planned.physical.rows()
        runtime = time.perf_counter() - start
        if cache_key is not None and cache_key in self._cache:
            entry = self._cache[cache_key]
            entry.executions += 1
            entry.total_runtime += runtime
        return QueryResult(rows=rows, runtime=runtime, planned=planned)

    # -- the tick pipeline ----------------------------------------------------------------

    def prepare_tick(self, specs: Sequence[TickQuerySpec]) -> _TickPipeline:
        """Compile (or reuse) the shared-subplan pipeline for one tick's queries.

        The pipeline is cached until the spec list changes (keys, plan
        identities or sink combinators) or plans are invalidated; plan
        identities are pinned by the cached ``PlannedQuery`` objects, so
        the id-keyed cache cannot alias across garbage collection.
        """
        cache_key = tuple(
            (s.key, id(s.plan), s.combinator, s.target_column, s.value_column)
            for s in specs
        )
        pipeline = self._tick_pipeline
        if pipeline is not None and pipeline.key == cache_key:
            self.plan_cache_hits += len(specs)
            return pipeline

        planned = [self.prepare(spec.plan) for spec in specs]
        optimized = [(spec.key, pq.optimized) for spec, pq in zip(specs, planned)]
        batch = self.config.use_batch
        # The row path shares nothing: each query runs its own plan.
        tick_plan = (
            build_tick_plan(optimized)
            if batch
            else TickPlan([TickEntry(key, plan, plan) for key, plan in optimized])
        )
        lowerer = self.planner.physical_planner
        defs: dict[str, _SharedDefExec] = {}
        lowerer.shared_lowering = _SharedLoweringContext(self, defs)
        try:
            shared_order: list[_SharedDefExec] = []
            for node in tick_plan.shared:
                physical = lowerer.lower(node.plan)
                batch_root = (
                    physical.batch_root if isinstance(physical, BatchBridgeOp) else None
                )
                names = (
                    tuple(batch_root.names)
                    if batch_root is not None
                    else tuple(physical.schema.names)
                )
                shared = _SharedDefExec(
                    node.fingerprint, physical, batch_root, names, node.consumers
                )
                defs[node.fingerprint] = shared
                shared_order.append(shared)
            entries: list[_TickEntryExec] = []
            for spec, pq, entry in zip(specs, planned, tick_plan.entries):
                physical = (
                    lowerer.lower(entry.rewritten) if entry.shared_refs else pq.physical
                )
                sink = (
                    EffectSinkOp(
                        physical, spec.combinator, spec.target_column, spec.value_column
                    )
                    if spec.combinator and batch
                    else None
                )
                entries.append(
                    _TickEntryExec(spec, pq, physical, sink, entry.shared_refs)
                )
        finally:
            lowerer.shared_lowering = None
        pipeline = _TickPipeline(cache_key, entries, shared_order, defs, tick_plan)
        self._tick_pipeline = pipeline
        self._shared_results.clear()
        return pipeline

    def execute_tick(self, specs: Sequence[TickQuerySpec]) -> list[TickQueryResult]:
        """Execute one tick's queries through the shared-plan pipeline.

        Shared subplans are materialized lazily, at most once, when the
        first consumer pulls them; queries registered incremental are
        served from their views exactly as :meth:`execute` would.  The
        shared store is cleared on both sides of the call — results are
        only valid against the table state they were computed from.
        """
        pipeline = self.prepare_tick(specs)
        self._shared_results.clear()
        results: list[TickQueryResult] = []
        fused_rows = 0
        try:
            for entry in pipeline.entries:
                spec = entry.spec
                start = time.perf_counter()
                rows: list[dict[str, Any]] | None = None
                partials: list[EffectPartial] | None = None
                served = self._refresh_incremental(spec.plan)
                if served is not None:
                    view_rows, _ = served
                    if spec.combinator:
                        partials = fold_rows_to_partials(
                            view_rows,
                            spec.combinator,
                            spec.target_column,
                            spec.value_column,
                        )
                    else:
                        rows = view_rows
                elif entry.sink is not None:
                    partials = entry.sink.partials()
                else:
                    rows = entry.physical.rows()
                runtime = time.perf_counter() - start
                if partials is not None:
                    fused_rows += sum(count for _, _, count in partials)
                cached = self._cache.get(id(spec.plan))
                if cached is not None:
                    cached.executions += 1
                    cached.total_runtime += runtime
                results.append(
                    TickQueryResult(spec.key, rows, partials, runtime, entry.planned)
                )
            evaluated = len(self._shared_results)
            self.last_shared_timings = {
                fingerprint: result.seconds
                for fingerprint, result in self._shared_results.items()
            }
        finally:
            self._shared_results.clear()
        tick_plan = pipeline.tick_plan
        self.last_tick_stats = {
            "queries": len(specs),
            "shared_subplans": len(pipeline.shared),
            "shared_subplans_evaluated": evaluated,
            "shared_consumers": tick_plan.shared_reference_count if tick_plan else 0,
            "evaluations_saved": tick_plan.evaluations_saved if tick_plan else 0,
            "fused_queries": sum(1 for e in pipeline.entries if e.sink is not None),
            "fused_effect_rows": fused_rows,
        }
        return results

    # -- shared materializations (called by the pipeline's source operators) ---------------

    def _ensure_shared(self, fingerprint: str) -> _SharedResult:
        result = self._shared_results.get(fingerprint)
        if result is not None:
            return result
        pipeline = self._tick_pipeline
        if pipeline is None or fingerprint not in pipeline.shared_by_fp:
            raise ExecutionError(
                f"shared subplan {fingerprint[:40]!r} has no pipeline definition"
            )
        shared = pipeline.shared_by_fp[fingerprint]
        result = _SharedResult()
        # Evaluation may recurse into _ensure_shared through nested shared
        # sources; nesting is acyclic (a shared subplan only references
        # strictly smaller ones).  Timings therefore nest too: an outer
        # subplan's seconds include the inner ones it pulled in.
        started = time.perf_counter()
        if shared.batch_root is not None:
            result.batch = shared.batch_root.execute()
        else:
            result.rows = shared.physical.rows()
        result.seconds = time.perf_counter() - started
        self._shared_results[fingerprint] = result
        return result

    def _shared_batch(self, fingerprint: str, renames: dict[str, str]) -> ColumnBatch:
        """A shared materialization as a batch (value lists shared)."""
        result = self._ensure_shared(fingerprint)
        if result.batch is None:
            assert result.rows is not None
            pipeline = self._tick_pipeline
            assert pipeline is not None
            names = pipeline.shared_by_fp[fingerprint].names
            result.batch = ColumnBatch.from_rows(names, result.rows)
        batch = result.batch
        if renames:
            names = [renames.get(n, n) for n in batch.names]
            columns = {renames.get(n, n): batch.columns[n] for n in batch.names}
            return ColumnBatch(names, columns, batch.selection)
        return batch

    # -- reporting -----------------------------------------------------------------------

    def cache_report(self) -> list[dict[str, Any]]:
        """Execution counts and mean runtimes of cached plans."""
        report = []
        for key, entry in self._cache.items():
            mean = entry.total_runtime / entry.executions if entry.executions else 0.0
            report.append(
                {
                    "plan": entry.planned.optimized.node_label(),
                    "executions": entry.executions,
                    "mean_runtime": mean,
                    "estimated_cost": entry.planned.estimated.cost,
                    "batch": entry.planned.uses_batch,
                    "incremental": key in self._incremental,
                }
            )
        return report

    def incremental_report(self) -> list[dict[str, Any]]:
        """Refresh statistics of every incremental view: the registered ones
        (``state: "live"``), then those a refresh error dropped (``state:
        "dropped"``, final counters plus the error's class as ``reason`` and
        its ``message``)."""
        live = [
            self._view_stats(key, view, "live")
            for key, (_plan, view) in self._incremental.items()
        ]
        return live + [dict(stats) for stats in self._dropped_views]

    def _view_stats(self, key: int, view: IncrementalView, state: str) -> dict[str, Any]:
        entry = self._cache.get(key)
        stats: dict[str, Any] = view.stats()
        stats["plan"] = entry.planned.optimized.node_label() if entry is not None else "?"
        stats["state"] = state
        return stats

    def fixpoint_report(self) -> dict[str, int]:
        """Cumulative counters of every live :class:`FixpointOp`.

        Walks all lowered plans this executor holds (plan cache, tick
        pipeline entries, shared-subplan definitions), deduplicating
        operators that appear through several roots.  Counters are
        cumulative across executions, so callers diff before/after to
        attribute work to one tick.
        """
        from repro.engine.operators.fixpoint import FixpointOp

        seen: dict[int, FixpointOp] = {}
        roots: list[PhysicalOperator] = [
            entry.planned.physical for entry in self._cache.values()
        ]
        pipeline = self._tick_pipeline
        if pipeline is not None:
            roots.extend(entry.physical for entry in pipeline.entries)
            roots.extend(shared.physical for shared in pipeline.shared)
        for root in roots:
            for op in root.walk():
                if isinstance(op, FixpointOp):
                    seen.setdefault(id(op), op)
        ops = list(seen.values())
        return {
            "operators": len(ops),
            "total_rounds": sum(op.total_rounds for op in ops),
            "total_delta_rows": sum(op.total_delta_rows for op in ops),
            "warm_restarts": sum(op.warm_restarts for op in ops),
            "cache_hits": sum(op.cache_hits for op in ops),
        }

    def tick_sharing_report(self) -> dict[str, Any]:
        """Shape of the compiled tick pipeline plus last-tick statistics."""
        pipeline = self._tick_pipeline
        if pipeline is None:
            return {"queries": 0, "shared_subplans": [], "last_tick": self.last_tick_stats}
        return {
            "queries": len(pipeline.entries),
            "fused_queries": [
                entry.spec.key for entry in pipeline.entries if entry.sink is not None
            ],
            "shared_subplans": [
                {
                    "fingerprint": shared.fingerprint,
                    "consumers": shared.consumers,
                    "batch": shared.batch_root is not None,
                    "plan": shared.physical.label(),
                    "seconds_last_tick": self.last_shared_timings.get(shared.fingerprint),
                }
                for shared in pipeline.shared
            ],
            "last_tick": self.last_tick_stats,
        }
