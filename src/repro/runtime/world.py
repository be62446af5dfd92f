"""The game world: classes, objects, scripts and the tick engine.

:class:`GameWorld` ties every subsystem of the reproduction together and
executes the paper's state-effect tick (Section 2):

1. **Query + effect step** — state tables are frozen (read-only) and every
   enabled script runs, either *compiled* (its effect queries execute
   set-at-a-time on the relational engine) or *interpreted* (the reference
   object-at-a-time walker).  Both produce the same IR: effect assignments
   and transaction requests.
2. **Update step** — effect assignments are combined per effect variable
   with the declared combinators; transaction requests go to the
   transaction engine; every registered update component computes new
   values for the state attributes it owns; the scheduler advances the
   program counters of multi-tick scripts.
3. **Reactive dispatch** — handlers are evaluated against the post-update
   state; the effects they produce participate in the *next* tick, and
   interrupts reset multi-tick program counters (Section 3.2).

The subscription flush, the WAL persist and the index advisor follow.
:attr:`GameWorld.phases`, built from :data:`PHASE_FIELDS`, is the tick.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.compile.exprgen import row_function
from repro.engine.errors import ExecutionError, ExpressionError
from repro.engine.executor import Executor, TickQuerySpec
from repro.engine.expressions import Expression
from repro.engine.optimizer.adaptive import IndexAdvisor
from repro.runtime.effects import CombinedEffects, EffectStore
from repro.runtime.reactive import FiredHandler, Handler, ReactiveDispatcher
from repro.runtime.scheduler import MultiTickScheduler
from repro.runtime.transactions import CompiledConstraint, TransactionEngine, TransactionReport
from repro.runtime.updates import (
    ExpressionUpdater,
    OwnershipRegistry,
    StateUpdate,
    UpdateComponent,
    UpdateRule,
)
from repro.sgl.ast_nodes import ClassDecl, NumberLiteral, Program, SglExpression, StateFieldDecl
from repro.sgl.compiler import (
    CompiledProgram,
    LoweringContext,
    ObjectBinding,
    SGLCompiler,
    lower_expression,
)
from repro.sgl.errors import SGLCompileError
from repro.sgl.interpreter import ScriptInterpreter
from repro.sgl.ir import ACTOR_COLUMN, EffectAssignment, TARGET_COLUMN, TransactionRequest, VALUE_COLUMN
from repro.sgl.multitick import pc_variable_name, segment_script
from repro.sgl.parser import parse_program
from repro.sgl.schema_gen import KEY_COLUMN, GeneratedSchema, SchemaGenerator, SchemaLayout
from repro.sgl.semantics import AnalyzedProgram, analyze_program

__all__ = ["ExecutionMode", "PHASE_FIELDS", "TickReport", "GameWorld"]

#: Tick phase label → :class:`TickReport` field, in execution order: the
#: one list of the tick's phases.  :attr:`GameWorld.phases`,
#: :attr:`TickReport.total_seconds`, the shard worker's per-phase seconds,
#: the metrics collector and the tracer are all built from it.
PHASE_FIELDS: tuple[tuple[str, str], ...] = (
    ("effect", "effect_step_seconds"),
    ("update", "update_step_seconds"),
    ("reactive", "reactive_seconds"),
    ("flush", "flush_seconds"),
    ("persist", "persist_seconds"),
    ("advisor", "advisor_seconds"),
)


class ExecutionMode(enum.Enum):
    """How scripts are executed during the effect step."""

    COMPILED = "compiled"
    INTERPRETED = "interpreted"


@dataclass(slots=True)
class TickReport:
    """Timings and counters for one tick (also consumed by benchmarks).

    Slotted: ``GameWorld.reports`` keeps one per tick for the life of the
    world, so a report's footprint is the world's per-tick memory growth.
    """

    tick: int
    effect_step_seconds: float = 0.0
    update_step_seconds: float = 0.0
    reactive_seconds: float = 0.0
    #: Index-advisor bookkeeping + replanning at the end of the tick
    #: (previously untimed, so advisor-heavy ticks looked free).
    advisor_seconds: float = 0.0
    #: Subscription flush phase: per-group delta computation + fan-out to
    #: session outboxes (zero when no subscription manager is attached).
    flush_seconds: float = 0.0
    #: WAL persist phase: change-log consolidation + commit-record append
    #: (and, on checkpoint ticks, the snapshot write).  Zero when no WAL is
    #: attached (see :meth:`GameWorld.attach_wal`).
    persist_seconds: float = 0.0
    effect_assignments: int = 0
    transactions_submitted: int = 0
    transactions_committed: int = 0
    transactions_aborted: int = 0
    handlers_fired: int = 0
    state_updates_applied: int = 0
    #: Executor plan-cache traffic during this tick.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Tick-pipeline sharing: shared subplans in the compiled pipeline,
    #: how many were actually materialized this tick (queries served from
    #: incremental views pull nothing), and how many subplan evaluations
    #: sharing avoids per tick versus unshared execution.
    shared_subplans: int = 0
    shared_subplans_evaluated: int = 0
    shared_evaluations_saved: int = 0
    #: Effect rows combined in-engine by sink fusion (instead of one
    #: EffectAssignment per row through the store).
    fused_effect_rows: int = 0
    #: Subscription service: messages fanned out this tick and what their
    #: deltas carried — rows added, rows removed and in-place ``changed``
    #: records, one each (see ``SubscriptionManager.flush``).
    subscription_messages: int = 0
    subscription_delta_rows: int = 0
    #: AOI fan-out of the flush (``InterestManager.last_stats`` summed over
    #: managers): changed rows routed through the cell grids, subscriptions
    #: those rows produced a delta for, subscriptions re-read because their
    #: observer moved, subscriptions re-anchored after a lost change-log
    #: delta, rows bounds-checked by box reads, and ``changed`` records
    #: emitted.  Candidates far above the delta rows delivered means boxes
    #: are scanning, not probing.
    aoi_routed_rows: int = 0
    aoi_touched_subs: int = 0
    aoi_refetched_subs: int = 0
    aoi_resyncs: int = 0
    aoi_candidate_rows: int = 0
    aoi_changed_records: int = 0
    #: WAL persist phase: bytes appended to the delta log and netted row
    #: changes the commit record carried.
    wal_bytes: int = 0
    wal_delta_rows: int = 0
    #: Recursive fixpoint plans: semi-naive rounds iterated this tick and
    #: total frontier (delta) rows fed to those rounds — per-round work
    #: proportional to the delta, not the accumulated closure.  Warm
    #: restarts count re-closures seeded from churn deltas instead of
    #: from scratch; cache hits served an unchanged closure outright.
    fixpoint_rounds: int = 0
    fixpoint_delta_rows: int = 0
    fixpoint_warm_restarts: int = 0
    fixpoint_cache_hits: int = 0
    #: Sharded execution (stamped by the shard worker/coordinator; zero in
    #: a single-process world): wire bytes this process *sent* cross-shard
    #: during the tick (handoffs + halo replicas, zlib+crc32 framed), the
    #: rows those frames carried, ghost rows installed from neighbouring
    #: shards' halo exports, and owned rows handed off to a new owner.
    exchange_bytes: int = 0
    exchange_rows: int = 0
    halo_rows: int = 0
    handoff_rows: int = 0

    @property
    def total_seconds(self) -> float:
        """The timed phases of :data:`PHASE_FIELDS`, summed."""
        return sum(getattr(self, name) for _, name in PHASE_FIELDS)

    def as_dict(self) -> dict[str, Any]:
        """Every field plus ``total_seconds``, schema-stable across ticks.

        The one counters payload shared by ``TickInspector.tick_counters``
        and the metrics collector — a zero report serializes with
        the identical key set, so scrapers never special-case startup.
        """
        out = dataclasses.asdict(self)
        out["total_seconds"] = self.total_seconds
        return out


@dataclass(slots=True)
class _Tick:
    """What the steps of one tick share (see :attr:`GameWorld.phases`)."""

    report: TickReport
    store: EffectStore
    transactions: list[TransactionRequest] = dataclasses.field(default_factory=list)


class GameWorld:
    """A running SGL game: schemas, objects, scripts and the tick loop."""

    def __init__(
        self,
        source: str | Program,
        mode: ExecutionMode = ExecutionMode.COMPILED,
        layout: SchemaLayout = SchemaLayout.SINGLE,
        vertical_groups: Sequence[Sequence[str]] | None = None,
        config: EngineConfig | None = None,
    ):
        if config is None:
            config = EngineConfig()
        self.config = config
        self.program = parse_program(source) if isinstance(source, str) else source
        self.analyzed: AnalyzedProgram = analyze_program(self.program)
        self.mode = mode
        self.layout = layout

        self._segmented = {
            script.name: segment_script(script) for script in self.program.scripts
        }
        self.catalog = Catalog()
        self.schema_generator = SchemaGenerator(layout, vertical_groups)
        self.schemas: dict[str, GeneratedSchema] = {}
        self._register_schemas()

        #: Auto-creates/evicts spatial indexes for hot band joins (§4.2);
        #: only kernels probe indexes, so the row path runs without one.
        self.index_advisor: IndexAdvisor | None = (
            IndexAdvisor(self.catalog) if config.use_batch else None
        )
        self.executor = Executor(self.catalog, config, index_advisor=self.index_advisor)
        #: Compiled queries already offered to the incremental planner,
        #: keyed by their stable ``query_id`` (``id()`` keys are unsafe:
        #: a recycled id would silently skip or double-consider a query).
        self._incremental_considered: set[str] = set()
        self.interpreter = ScriptInterpreter(self.analyzed)
        self.compiler = SGLCompiler(self.analyzed, self.schemas, self.schema_generator)
        self._compiled: CompiledProgram | None = None

        self.updates = OwnershipRegistry()
        self.expression_updater = ExpressionUpdater()
        self._expression_updater_registered = False
        self.scheduler = MultiTickScheduler()
        for script in self.program.scripts:
            self.scheduler.register(self._segmented[script.name], script.class_name)
        if self.scheduler.script_names:
            self.updates.register(self.scheduler)
        self.reactive = ReactiveDispatcher()
        self._transaction_engine: TransactionEngine | None = None

        #: Live subscription service (created lazily by :attr:`subscriptions`).
        self._subscription_manager = None
        #: Durable delta log writer (created by :meth:`attach_wal`).
        self.wal = None

        #: Runs the scripts of the effect step, chosen once by *mode*.
        self._run_scripts: Callable[[_Tick], None] = (
            self._run_compiled if mode is ExecutionMode.COMPILED else self._run_interpreted
        )
        #: The tick: ``(label, TickReport field, step)`` in execution order,
        #: one ``_<label>_phase`` step per :data:`PHASE_FIELDS` entry.
        #: :meth:`tick` times each step into its field; a step whose field
        #: is ``None`` runs untimed.  The shard worker inserts its ghost step
        #: after ``"effect"``.
        self.phases: list[tuple[str, str | None, Callable[[_Tick], None]]] = [
            (label, name, getattr(self, f"_{label}_phase")) for label, name in PHASE_FIELDS
        ]

        #: Observers called with the finished :class:`TickReport` at the end
        #: of every :meth:`tick` (metrics collectors, tracers).  Empty by
        #: default, so worlds that never attach observability pay nothing.
        self.tick_observers: list[Callable[[TickReport], None]] = []
        #: The attached :class:`~repro.obs.collector.WorldMetrics`, if any.
        self.metrics = None

        self._next_ids: dict[str, int] = {decl.name: 0 for decl in self.program.classes}
        #: ``(class, attribute) -> state table`` (fixed once schemas exist).
        self._attribute_tables: dict[tuple[str, str], str] = {}
        self._enabled_scripts: list[str] = [script.name for script in self.program.scripts]
        self.tick_count = 0
        #: Combined effects of the most recent tick (debug inspection).
        self.last_effects: CombinedEffects = CombinedEffects()
        #: Transaction report of the most recent tick.
        self.last_transaction_report: TransactionReport = TransactionReport()
        #: Reports of every tick executed so far: the structured per-tick log
        #: (:meth:`TickReport.as_dict`); :meth:`rewind_to` drops abandoned ones.
        self.reports: list[TickReport] = []

    # ------------------------------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------------------------------

    def _register_schemas(self) -> None:
        for decl in self.program.classes:
            augmented = self._augment_class(decl)
            self.schemas[decl.name] = self.schema_generator.register(self.catalog, augmented)

    def _augment_class(self, decl: ClassDecl) -> ClassDecl:
        """Add implicit program-counter state fields for multi-tick scripts."""
        extra: list[StateFieldDecl] = []
        for script in self.program.scripts_for_class(decl.name):
            segmented = self._segmented[script.name]
            if segmented.is_multi_tick:
                extra.append(
                    StateFieldDecl(
                        pc_variable_name(script.name), "number", NumberLiteral(0), None
                    )
                )
        if not extra:
            return decl
        return ClassDecl(decl.name, decl.state_fields + tuple(extra), decl.effect_fields)

    # ------------------------------------------------------------------------------------------
    # object management
    # ------------------------------------------------------------------------------------------

    def class_names(self) -> list[str]:
        return [decl.name for decl in self.program.classes]

    def spawn(self, class_name: str, **fields: Any) -> int:
        """Create a new object of *class_name*; returns its id."""
        generated = self._generated(class_name)
        known_columns = {
            column.name
            for schema in generated.state_tables.values()
            for column in schema
        }
        unknown = sorted(set(fields) - known_columns)
        if unknown:
            raise ExecutionError(f"unknown fields for class {class_name!r}: {unknown}")
        object_id = self._next_ids[class_name]
        self._next_ids[class_name] += 1
        remaining = dict(fields)
        for table_name, schema in generated.state_tables.items():
            values: dict[str, Any] = {KEY_COLUMN: object_id}
            for column in schema:
                if column.name in (KEY_COLUMN,):
                    continue
                if column.name in remaining:
                    values[column.name] = remaining.pop(column.name)
            self.catalog.table(table_name).insert(values)
        return object_id

    def spawn_many(self, class_name: str, rows: Iterable[Mapping[str, Any]]) -> list[int]:
        return [self.spawn(class_name, **row) for row in rows]

    def destroy(self, class_name: str, object_id: int) -> None:
        """Remove an object from every partition table."""
        generated = self._generated(class_name)
        for table_name in generated.state_table_names():
            table = self.catalog.table(table_name)
            rowid = table.rowid_for_key(object_id)
            if rowid is not None:
                table.delete(rowid)

    def adopt(self, class_name: str, row: Mapping[str, Any]) -> int:
        """Insert an object with an explicit id (shard handoff / replication).

        *row* is a merged state row as produced by :meth:`get_object` or
        :meth:`release`, including :data:`KEY_COLUMN`.  The id counter is
        bumped past the adopted id so later :meth:`spawn` calls on this
        world can never collide with ids minted elsewhere in the fleet.
        """
        object_id = row[KEY_COLUMN]
        generated = self._generated(class_name)
        for table_name, schema in generated.state_tables.items():
            values: dict[str, Any] = {KEY_COLUMN: object_id}
            for column in schema:
                if column.name != KEY_COLUMN and column.name in row:
                    values[column.name] = row[column.name]
            self.catalog.table(table_name).insert(values)
        if object_id >= self._next_ids.get(class_name, 0):
            self._next_ids[class_name] = object_id + 1
        return object_id

    def release(self, class_name: str, object_id: int) -> dict[str, Any] | None:
        """Remove an object and return its merged row (shard handoff).

        The inverse of :meth:`adopt`: the returned row is everything the
        new owner needs to continue the object's life, or ``None`` when
        the object does not exist here.
        """
        row = self.get_object(class_name, object_id)
        if row is None:
            return None
        self.destroy(class_name, object_id)
        return row

    def count(self, class_name: str) -> int:
        generated = self._generated(class_name)
        return len(self.catalog.table(generated.primary_table))

    def get_object(self, class_name: str, object_id: Any) -> dict[str, Any] | None:
        """Merged state row of one object (implements the WorldView protocol)."""
        generated = self._generated(class_name)
        merged: dict[str, Any] | None = None
        for table_name in generated.state_table_names():
            row = self.catalog.table(table_name).get_by_key(object_id)
            if row is None:
                return None
            if merged is None:
                merged = dict(row)
            else:
                merged.update(row)
        return merged

    def objects(self, class_name: str) -> list[dict[str, Any]]:
        """All state rows of a class (merged across vertical partitions)."""
        generated = self._generated(class_name)
        names = generated.state_table_names()
        primary = self.catalog.table(names[0])
        rows = [dict(row) for row in primary.rows()]
        for table_name in names[1:]:
            table = self.catalog.table(table_name)
            for row in rows:
                extra = table.get_by_key(row[KEY_COLUMN])
                if extra is not None:
                    row.update(extra)
        return rows

    def extent(self, class_name: str) -> Iterable[Mapping[str, Any]]:
        """Alias of :meth:`objects` (the interpreter's WorldView protocol)."""
        return self.objects(class_name)

    def set_state(self, class_name: str, object_id: Any, **changes: Any) -> None:
        """Directly set state attributes (tooling/tests; not script-visible)."""
        self._apply_updates(
            [StateUpdate(class_name, object_id, attr, value) for attr, value in changes.items()]
        )

    def _generated(self, class_name: str) -> GeneratedSchema:
        try:
            return self.schemas[class_name]
        except KeyError:
            raise ExecutionError(f"unknown class {class_name!r}") from None

    # ------------------------------------------------------------------------------------------
    # configuration: scripts, components, rules, handlers
    # ------------------------------------------------------------------------------------------

    @property
    def compiled(self) -> CompiledProgram:
        """The compiled form of every script (compiled lazily on first use)."""
        if self._compiled is None:
            self._compiled = self.compiler.compile_program()
        return self._compiled

    def enabled_scripts(self) -> list[str]:
        return list(self._enabled_scripts)

    def enable_script(self, name: str) -> None:
        if name not in self._enabled_scripts:
            self._enabled_scripts.append(name)

    def disable_script(self, name: str) -> None:
        if name in self._enabled_scripts:
            self._enabled_scripts.remove(name)

    def add_component(self, component: UpdateComponent) -> None:
        """Register an update component (physics, pathfinding, transactions …)."""
        if isinstance(component, TransactionEngine):
            component.set_constraint_evaluator(self._evaluate_condition, self._compile_constraint)
            self._transaction_engine = component
        self.updates.register(component)

    def add_update_rule(
        self,
        class_name: str,
        attribute: str,
        compute: Callable[[Mapping[str, Any], Mapping[str, Any]], Any] | None = None,
        expression: Expression | None = None,
    ) -> None:
        """Add a ``state = f(state, effects)`` update rule (Section 2.2)."""
        self.expression_updater.add_rule(UpdateRule(class_name, attribute, compute, expression))
        if not self._expression_updater_registered:
            self.updates.register(self.expression_updater)
            self._expression_updater_registered = True
        else:
            # Re-validate ownership for the newly added rule.
            owner = self.updates.owner_of(class_name, attribute)
            if owner is not None and owner is not self.expression_updater:
                raise ExecutionError(
                    f"{class_name}.{attribute} is already owned by {owner.name!r}"
                )
            self.updates._owner[(class_name, attribute)] = self.expression_updater

    def add_handler(self, handler: Handler) -> None:
        """Register a reactive handler (Section 3.2)."""
        self.reactive.register(handler)

    # ------------------------------------------------------------------------------------------
    # the subscription service
    # ------------------------------------------------------------------------------------------

    @property
    def subscriptions(self):
        """The world's :class:`~repro.service.subscriptions.SubscriptionManager`.

        Created lazily on first access and attached to the tick loop: once
        any session subscribes, every :meth:`tick` ends with a *flush
        phase* that computes each standing query's delta once and fans it
        out to all subscriber outboxes (timed in
        ``TickReport.flush_seconds``).  Worlds that never touch this
        property pay nothing.
        """
        if self._subscription_manager is None:
            from repro.service.subscriptions import SubscriptionManager

            self._subscription_manager = SubscriptionManager(world=self)
        return self._subscription_manager

    @property
    def has_subscribers(self) -> bool:
        return (
            self._subscription_manager is not None
            and self._subscription_manager.subscription_count() > 0
        )

    # ------------------------------------------------------------------------------------------
    # the durable delta log
    # ------------------------------------------------------------------------------------------

    def attach_wal(
        self,
        path: str,
        checkpoint_interval: int = 50,
        segment_max_bytes: int | None = None,
        *,
        fsync: bool = False,
        auto_trim: bool = False,
    ):
        """Attach a durable write-ahead delta log at directory *path*.

        Every subsequent :meth:`tick` ends with a timed *persist phase*
        (``TickReport.persist_seconds``): each state table's change log is
        consolidated once and the netted per-row deltas are appended as the
        tick's commit record; every ``checkpoint_interval`` commits a full
        snapshot checkpoint bounds replay cost (and, with ``auto_trim``,
        lets old segments be dropped).

        When *path* already holds a log, the world is first **recovered**:
        torn tails are truncated, the last fully committed tick is replayed
        into the state tables (the world must have been built from the same
        program), and the log resumes appending where it left off.  A fresh log starts with a baseline
        checkpoint of the current state, so replay can always reach back to
        the attach point.  Returns the :class:`~repro.persistence.log.WorldWal`.
        """
        from repro.persistence.log import DEFAULT_SEGMENT_BYTES, DeltaLog, WalError, WorldWal

        if self.wal is not None:
            raise ExecutionError("a WAL is already attached to this world")
        log = DeltaLog(
            path,
            segment_max_bytes=(
                segment_max_bytes if segment_max_bytes is not None else DEFAULT_SEGMENT_BYTES
            ),
            fsync=fsync,
        )
        wal = WorldWal(
            self, log, checkpoint_interval=checkpoint_interval, auto_trim=auto_trim
        )
        if log.last_tick is not None:
            recovered = wal.recover()
            if recovered is None:
                raise WalError(f"log at {path!r} exists but holds no recoverable state")
        else:
            wal.checkpoint()  # baseline: replay can reach the attach point
        self.wal = wal
        return wal

    def detach_wal(self) -> None:
        """Close and detach the WAL (ticks stop persisting)."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def rewind_to(self, tick: int) -> None:
        """Put the world back at the start of *tick*, read from the WAL.

        The tables, id counters and tick counter become the log's exact
        record of tick boundary ``tick - 1``: no tick is re-run.  The WAL
        then checkpoints the restored state, so replay, recovery and
        catch-up follow the new timeline and never the abandoned ticks,
        whose reports are dropped.  Raises :class:`ExecutionError` without
        an attached WAL, and ``ReplayError`` when the log no longer holds
        that boundary.
        """
        if self.wal is None:
            raise ExecutionError("rewind_to reads the WAL: call attach_wal first")
        if tick > self.tick_count:
            raise ExecutionError(
                f"cannot rewind forward (currently at tick {self.tick_count})"
            )
        self.wal.rewind(tick - 1)
        self.reports = [report for report in self.reports if report.tick < tick]

    # ------------------------------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------------------------------

    def attach_metrics(self, registry=None):
        """Attach a metrics collector fed from every tick's :class:`TickReport`.

        Creates (or reuses) a :class:`~repro.obs.collector.WorldMetrics`
        over *registry* (a fresh
        :class:`~repro.obs.metrics.MetricsRegistry` when ``None``) and
        registers it as a tick observer: phase-latency histograms, engine
        counters and last-tick gauges accumulate from then on.  Returns
        the collector; its ``.registry`` is what
        :class:`~repro.obs.http.MetricsServer` serves.  Observation is a
        fixed handful of locked adds per tick — gated well under 3% of a
        tick — and idempotent: calling again returns the same collector.
        """
        if self.metrics is not None:
            return self.metrics
        from repro.obs.collector import WorldMetrics

        self.metrics = WorldMetrics(registry)
        self.tick_observers.append(self.metrics.observe)
        return self.metrics

    def attach_tracer(self, tracer=None):
        """Attach a :class:`~repro.obs.tracing.TickTracer` as a tick observer.

        Each tick appends per-phase spans (and per-shared-subplan spans,
        labeled by MQO fingerprint) to the tracer's Chrome trace-event
        buffer; ``tracer.export(path)`` writes a Perfetto-loadable file.
        """
        if tracer is None:
            from repro.obs.tracing import TickTracer

            tracer = TickTracer(world=self)
        else:
            tracer.bind(self)
        self.tick_observers.append(tracer.observe)
        return tracer

    # ------------------------------------------------------------------------------------------
    # the tick loop
    # ------------------------------------------------------------------------------------------

    def run(self, ticks: int) -> list[TickReport]:
        return [self.tick() for _ in range(ticks)]

    def tick(self) -> TickReport:
        """Run every step of :attr:`phases` in order, timing each into its field."""
        report = TickReport(tick=self.tick_count)
        state = _Tick(report, EffectStore({decl.name: decl for decl in self.program.classes}))
        cache_hits = self.executor.plan_cache_hits
        cache_misses = self.executor.plan_cache_misses
        fixpoint_before = self.executor.fixpoint_report()

        # Effects queued by reactive handlers at the end of the previous tick.
        state.store.add_all(self.reactive.drain_effects())

        for _, name, step in self.phases:
            started = time.perf_counter()
            step(state)
            if name is not None:
                setattr(report, name, time.perf_counter() - started)

        report.plan_cache_hits = self.executor.plan_cache_hits - cache_hits
        report.plan_cache_misses = self.executor.plan_cache_misses - cache_misses
        # Clamped at zero: an advisor-triggered replan drops cached plans
        # (and their cumulative counters) before this snapshot.
        fixpoint_after = self.executor.fixpoint_report()
        for name, key in (
            ("fixpoint_rounds", "total_rounds"),
            ("fixpoint_delta_rows", "total_delta_rows"),
            ("fixpoint_warm_restarts", "warm_restarts"),
            ("fixpoint_cache_hits", "cache_hits"),
        ):
            setattr(report, name, max(0, fixpoint_after[key] - fixpoint_before[key]))
        self.tick_count += 1
        self.reports.append(report)
        for observer in self.tick_observers:
            observer(report)
        return report

    # -- the phases ---------------------------------------------------------------------------------

    def _effect_phase(self, tick: _Tick) -> None:
        """Query + effect step: every enabled script runs over frozen state."""
        self._freeze(frozen=True)
        try:
            self._run_scripts(tick)
        finally:
            self._freeze(frozen=False)
        tick.report.effect_assignments = len(tick.store)
        tick.report.transactions_submitted = len(tick.transactions)

    def _update_phase(self, tick: _Tick) -> None:
        """Update step: combine effects, run transactions and update components."""
        store, transactions, report = tick.store, tick.transactions, tick.report
        if transactions and self._transaction_engine is None:
            # Without a transaction engine atomic blocks degrade to plain
            # effect assignments (documented behaviour).  They are folded
            # in *before* the single combine below — combining first and
            # re-combining the whole store from scratch afterwards did the
            # per-tick aggregation twice.
            for request in transactions:
                store.add_all(request.assignments)
        combined = store.combine()
        self.last_effects = combined
        if transactions and self._transaction_engine is not None:
            self._transaction_engine.submit(transactions)
        updates = self.updates.compute_all(self, combined)
        self._apply_updates(updates)
        report.state_updates_applied = len(updates)
        if self._transaction_engine is not None:
            self.last_transaction_report = self._transaction_engine.last_report
            report.transactions_committed = self.last_transaction_report.commit_count
            report.transactions_aborted = self.last_transaction_report.abort_count

    def _reactive_phase(self, tick: _Tick) -> None:
        """Reactive dispatch over the post-update state."""
        self.reactive.clear_fired()
        fired: list[FiredHandler] = []
        for class_name in self.class_names():
            if not self.reactive.handlers_for(class_name):
                continue
            fired.extend(
                self.reactive.dispatch(
                    class_name,
                    self.objects(class_name),
                    self._evaluate_condition,
                    self.scheduler.reset,
                )
            )
        tick.report.handlers_fired = len(fired)

    def _flush_phase(self, tick: _Tick) -> None:
        """Stream this tick's deltas to subscribers."""
        if self._subscription_manager is None:
            return
        report = tick.report
        flush_stats = self._subscription_manager.flush(report.tick)
        report.subscription_messages = flush_stats.get("messages", 0)
        report.subscription_delta_rows = flush_stats.get("delta_rows", 0)
        for name, value in flush_stats.items():
            if name.startswith("aoi_"):  # the report has a field per counter
                setattr(report, name, value)

    def _persist_phase(self, tick: _Tick) -> None:
        """Append this tick's commit record to the WAL."""
        if self.wal is None:
            return
        persist_stats = self.wal.commit_tick(tick.report.tick)
        tick.report.wal_bytes = persist_stats.get("bytes", 0)
        tick.report.wal_delta_rows = persist_stats.get("delta_rows", 0)

    def _advisor_phase(self, tick: _Tick) -> None:
        """Create or evict indexes for hot band joins."""
        if self.index_advisor is not None and self.index_advisor.end_tick():
            # The catalog shape changed; replan so the next tick's queries
            # probe (or stop probing) the adjusted index set.
            self.executor.invalidate_plans()

    # -- effect-step strategies ---------------------------------------------------------------------

    #: Effect combinators whose combined value depends on assignment order.
    #: Queries feeding them must see full-execution row order, so they are
    #: never registered for incremental (multiset-maintained) execution.
    _ORDER_SENSITIVE_COMBINATORS = frozenset({"first", "last", "collect"})

    def _maybe_register_incremental(self, query: Any) -> None:
        """Offer one compiled effect query to the incremental planner.

        Registration is per-query and sticky, memoized on the compiler's
        stable ``query_id`` — ``id(query)`` values can be recycled after
        garbage collection, which would silently skip a fresh query or
        re-consider a dead one.  The rule is sink fusion's
        (:meth:`_sink_combinator`): transactional queries and queries whose
        combinator is order-sensitive are skipped; everything else is
        handed to :meth:`Executor.register_incremental`, which itself
        declines plans it cannot prove delta-correct.
        """
        key = query.query_id or f"anon:{id(query)}"
        if key in self._incremental_considered:
            return
        self._incremental_considered.add(key)
        if self._sink_combinator(query) is not None:
            self.executor.register_incremental(query.plan)

    def _tick_queries(self) -> list[Any]:
        """The tick's effect queries in execution order (scripts as enabled,
        segments ascending, assignment sites in source order)."""
        queries: list[Any] = []
        for script_name in self._enabled_scripts:
            compiled = self.compiled.script(script_name)
            for segment_index in sorted(compiled.queries_by_segment):
                queries.extend(compiled.queries_by_segment[segment_index])
        return queries

    def _sink_combinator(self, query: Any) -> str | None:
        """The combinator to fuse in-engine, or ``None`` to stay row-at-a-time.

        Transactional queries need per-row actor columns for transaction
        reassembly, and order-sensitive combinators need full-execution
        row order through the store — both keep the row path (the same
        fallback discipline as the incremental and index-probe paths).
        """
        if query.transactional:
            return None
        combinator = query.combinator or "choose"
        if combinator in self._ORDER_SENSITIVE_COMBINATORS:
            return None
        return combinator

    def _run_compiled(self, tick: _Tick) -> None:
        store, transactions, report = tick.store, tick.transactions, tick.report
        pending: dict[tuple[str, int, Any], list[EffectAssignment]] = {}
        pending_constraints: dict[tuple[str, int, Any], tuple[SglExpression, ...]] = {}
        pending_class: dict[tuple[str, int, Any], str] = {}
        queries = self._tick_queries()
        for query in queries:
            self._maybe_register_incremental(query)

        specs = [
            TickQuerySpec(
                key=query.query_id or f"anon:{index}",
                plan=query.plan,
                combinator=self._sink_combinator(query),
                target_column=TARGET_COLUMN,
                value_column=VALUE_COLUMN,
            )
            for index, query in enumerate(queries)
        ]
        results = self.executor.execute_tick(specs)
        stats = self.executor.last_tick_stats
        report.shared_subplans = stats.get("shared_subplans", 0)
        report.shared_subplans_evaluated = stats.get("shared_subplans_evaluated", 0)
        report.shared_evaluations_saved = stats.get("evaluations_saved", 0)
        report.fused_effect_rows = stats.get("fused_effect_rows", 0)
        for query, result in zip(queries, results):
            for target_id, partial, count in result.partials or ():
                store.add_partial(
                    query.target_class,
                    target_id,
                    query.effect,
                    partial,
                    count,
                    set_insert=query.set_insert,
                )
            for row in result.rows or ():
                assignment = EffectAssignment(
                    class_name=query.target_class,
                    target_id=row[TARGET_COLUMN],
                    effect=query.effect,
                    value=row[VALUE_COLUMN],
                    set_insert=query.set_insert,
                )
                if query.transactional:
                    key = (query.script_name, query.block_index, row[ACTOR_COLUMN])
                    pending.setdefault(key, []).append(assignment)
                    pending_constraints[key] = query.constraints
                    pending_class[key] = query.class_name
                else:
                    store.add(assignment)
        for key, assignments in pending.items():
            script_name, block_index, actor_id = key
            transactions.append(
                TransactionRequest(
                    actor_class=pending_class[key],
                    actor_id=actor_id,
                    assignments=tuple(assignments),
                    constraints=pending_constraints[key],
                    script_name=script_name,
                    block_index=block_index,
                )
            )

    def _run_interpreted(self, tick: _Tick) -> None:
        for script_name in self._enabled_scripts:
            script = self.program.script_named(script_name)
            assert script is not None
            segmented = self._segmented[script_name]
            pc_attr = segmented.pc_variable
            for row in self.objects(script.class_name):
                pc = int(row.get(pc_attr, 0) or 0) if segmented.is_multi_tick else 0
                result, _ = self.interpreter.run_script(script_name, row, self, pc)
                tick.store.add_all(result.effects)
                tick.transactions.extend(result.transactions)
        # Program counters advance in the scheduler update component, which
        # runs for both execution modes.

    # -- update application ------------------------------------------------------------------------------

    def _apply_updates(self, updates: Sequence[StateUpdate]) -> None:
        """Write each changed row once.

        Updates are grouped per ``(table, object)`` in first-seen order —
        a later write to the same attribute wins, as it would applied one
        by one — so a row costs one copy, one index notification and one
        change-log entry per tick however many attributes changed.
        """
        grouped: dict[tuple[str, Any], dict[str, Any]] = {}
        for update in updates:
            table_name = self._table_for_attribute(update.class_name, update.attribute)
            changes = grouped.get((table_name, update.object_id))
            if changes is None:
                changes = grouped[(table_name, update.object_id)] = {}
            changes[update.attribute] = update.value
        for (table_name, object_id), changes in grouped.items():
            self.catalog.table(table_name).update_by_key(object_id, changes)

    def _table_for_attribute(self, class_name: str, attribute: str) -> str:
        key = (class_name, attribute)
        table_name = self._attribute_tables.get(key)
        if table_name is None:
            generated = self._generated(class_name)
            for table_name, schema in generated.state_tables.items():
                if attribute in schema:
                    break
            else:
                raise ExecutionError(
                    f"class {class_name!r} has no state attribute {attribute!r}"
                )
            self._attribute_tables[key] = table_name
        return table_name

    def _freeze(self, *, frozen: bool) -> None:
        for generated in self.schemas.values():
            for table_name in generated.state_table_names():
                table = self.catalog.table(table_name)
                if frozen:
                    table.freeze()
                else:
                    table.thaw()

    # -- expression evaluation services --------------------------------------------------------------------

    def _compile_constraint(
        self, constraint: SglExpression, class_name: str
    ) -> CompiledConstraint | None:
        """Lower a transaction constraint to one generated row function.

        ``None`` — the interpreter decides — when the constraint does not
        lower (a read through a reference derefs committed state) or reads
        anything but a declared state field of ``self``; a bare ``self``
        lowers to its key column, where the interpreter sees an object.
        """
        decl = self.program.class_named(class_name)
        if decl is None:
            return None
        context = LoweringContext(
            self.program, decl, "self", objects={"self": ObjectBinding(class_name, "self")}
        )
        try:
            lowered = lower_expression(constraint, context)
        except (SGLCompileError, ExpressionError):
            return None
        names = tuple(sorted(lowered.columns()))
        attributes = tuple(name.removeprefix("self.") for name in names)
        if any(decl.state_field(a) is None for a in attributes):
            return None
        return attributes, row_function(names, [lowered], guard=True)

    def _evaluate_condition(
        self, condition: Any, class_name: str, row: Mapping[str, Any]
    ) -> bool:
        """A handler condition or transaction constraint, against one row."""
        if callable(condition):
            return bool(condition(row))
        return bool(self.interpreter.evaluate_expression(condition, class_name, row, self))

    # -- snapshots ------------------------------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """All state tables plus counters (what state checks compare)."""
        tables = {}
        for generated in self.schemas.values():
            for table_name in generated.state_table_names():
                tables[table_name] = self.catalog.table(table_name).snapshot()
        return {
            "tick": self.tick_count,
            "tables": tables,
            "next_ids": dict(self._next_ids),
        }
