"""Lowering logical plans to physical operator trees.

The physical planner chooses operator implementations:

* a maximal batch-capable subtree (scans, filters, projections, hash and
  nested-loop joins, aggregation with compilable expressions) lowers to
  the columnar batch path (:mod:`repro.engine.operators.batch_ops`),
  bridged back to row dicts at its root by :class:`BatchBridgeOp`; with
  kernel compilation on, every node of that subtree is first offered to
  the kernel compiler, so a fused kernel is just another batch operator —
  the root of the subtree or a child of interpreted batch operators,
* selections directly above a base-table scan use an index
  (:class:`IndexRangeScanOp` / :class:`IndexEqualityScanOp`) when one covers
  the predicate columns, keeping the rest as a residual filter — index
  scans win over the batch path because they skip rows entirely,
* joins become hash joins (equi conjuncts), range-probe joins (the
  Figure 2 "units within range" shape), or nested-loop joins; a
  range-probe join is columnar only as a compiled kernel — interpreted,
  the grid-accelerated row operators beat a batch nested loop,
* everything else lowers one-to-one on the row path, with children again
  free to choose the batch path below.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.algebra import (
    Aggregate,
    Distinct,
    Exchange,
    Fixpoint,
    Join,
    Limit,
    LogicalPlan,
    Project,
    RecursiveRef,
    Select,
    ShardedScan,
    Sort,
    TableScan,
    Union,
    Values,
)
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.errors import PlanError, SchemaError
from repro.engine.table import Table
from repro.engine.optimizer.mqo import SharedScan
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    and_all,
    batch_supported,
    resolve_batch_column,
)
from repro.engine.operators import (
    BatchAggregateOp,
    BatchBridgeOp,
    BatchFilterOp,
    BatchHashJoinOp,
    BatchNestedLoopJoinOp,
    BatchOperator,
    BatchProjectOp,
    BatchTableScanOp,
    BatchValuesOp,
    CrossJoinOp,
    DistinctOp,
    ExchangeOp,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    IndexEqualityScanOp,
    IndexProbeJoinOp,
    IndexRangeScanOp,
    LimitOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    RangeProbeJoinOp,
    SortOp,
    TableScanOp,
    UnionOp,
    ValuesOp,
)
from repro.engine.operators.fixpoint import (
    FixpointOp,
    LinearStep,
    RecursiveCell,
    RecursiveSourceOp,
    _DeltaVariant,
)
from repro.engine.schema import Schema
from repro.engine.table import Table

__all__ = ["PhysicalPlanner", "inner_scan_info", "match_band_index"]


def inner_scan_info(
    catalog: Catalog, plan: LogicalPlan
) -> tuple[Table, str | None, list[Expression]] | None:
    """Identify a (possibly filtered) base-table scan on a join's inner side.

    Returns ``(table, scan alias, folded Select predicates)`` when *plan* is
    a ``TableScan`` or a chain of ``Select`` nodes over one — the only
    shapes an index-probing join can bypass, because it reads the inner
    rows straight out of the table.  The folded predicates must be
    re-applied by the caller (as join residuals).
    """
    predicates: list[Expression] = []
    node = plan
    while isinstance(node, Select):
        predicates.append(node.predicate)
        node = node.child
    if not isinstance(node, TableScan) or not catalog.has_table(node.table_name):
        return None
    return catalog.table(node.table_name), node.alias, predicates


def match_band_index(
    catalog: Catalog, plan: LogicalPlan, dimensions: Sequence[tuple[str, Any, Any]]
) -> tuple[Table, str, str | None, list[Expression]] | None:
    """Match a band-join inner side against a registered range-capable index.

    ``dimensions`` are the probe triples from :func:`_extract_range_probe`;
    coverage is decided by :meth:`Table.find_index_covering` (maximal
    probe-column subset, hash indexes excluded — their ``range_search`` is
    a linear fallback, no better than the transient grid).  Returns
    ``(table, index_name, scan alias, folded Select predicates)``.
    """
    info = inner_scan_info(catalog, plan)
    if info is None:
        return None
    table, alias, predicates = info
    covering = table.find_index_covering(
        [column.split(".")[-1] for column, _, _ in dimensions]
    )
    if covering is None:
        return None
    return table, covering[0], alias, predicates


class PhysicalPlanner:
    """Translates optimized logical plans into executable operator trees.

    Reads four switches of its :class:`~repro.engine.config.EngineConfig`:
    ``use_indexes=False`` forces pure scan plans; ``use_batch=False``
    forces row-at-a-time plans (the oracle of the equivalence tests);
    ``use_fixpoint=False`` lowers Fixpoint nodes to the naive reference
    loop (full accumulator every round); and with ``use_fixpoint`` on,
    ``use_incremental`` lowers per-table delta variants of fixpoint steps
    so cached closures warm-restart after insert-only churn.

    ``index_advisor`` (an
    :class:`~repro.engine.optimizer.adaptive.IndexAdvisor`) receives
    execution-time probe statistics from lowered band joins so it can
    create indexes for join columns that stay hot across ticks.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig,
        *,
        index_advisor: Any = None,
    ):
        self.catalog = catalog
        self.config = config
        self.index_advisor = index_advisor
        #: Binding slots for RecursiveRef leaves, installed while lowering
        #: an enclosing Fixpoint: name -> (cell, positional source names).
        self.recursive_cells: dict[str, tuple[RecursiveCell, Sequence[str] | None]] = {}
        #: Set by the executor while lowering a tick pipeline: an object
        #: with ``row_source(shared_scan)`` / ``batch_source(shared_scan)``
        #: methods resolving :class:`SharedScan` leaves to operators that
        #: serve the tick-shared materialization.  ``None`` outside
        #: pipeline lowering — SharedScan then falls back to lowering its
        #: own source subtree, which is always correct.
        self.shared_lowering: Any = None
        #: Set by the executor when kernel compilation is enabled: an
        #: object with ``lower(plan, planner)`` returning a fused-kernel
        #: batch operator for fusable pipelines, or ``None`` to continue
        #: with the interpreted batch operators.  Consulted at every node
        #: :meth:`_lower_batch` visits, so unfusable roots still get fused
        #: subtrees.
        self.kernel_lowering: Any = None
        #: ``id(plan) -> (plan, batch operator | None)`` for the nodes
        #: :meth:`_lower_batch` already visited during the outermost
        #: :meth:`lower` call in progress.  A node whose ancestor failed to
        #: batch is offered again when the row path recurses into it; the
        #: memo answers that from the first visit, so each node is analysed
        #: (and counted by the kernel compiler) once per lowering.  The
        #: plan reference pins the id.
        self._batch_memo: dict[int, tuple[LogicalPlan, BatchOperator | None]] = {}
        self._lower_depth = 0

    # -- entry point ------------------------------------------------------------------

    def lower(self, plan: LogicalPlan) -> PhysicalOperator:
        self._lower_depth += 1
        try:
            return self._lower(plan)
        finally:
            self._lower_depth -= 1
            if not self._lower_depth:
                self._batch_memo.clear()

    def _lower(self, plan: LogicalPlan) -> PhysicalOperator:
        if isinstance(plan, ShardedScan):
            # Expand into Select-over-TableScan first so index matching,
            # batching and kernels all apply to the shard slice unchanged.
            return self.lower(plan.to_select())
        if isinstance(plan, Exchange):
            child = self.lower(plan.child)
            return ExchangeOp(
                child,
                plan.axis_column,
                plan.cuts,
                plan.shard_column,
                plan.exclude_shard,
                plan.output_schema(self.catalog),
            )
        if self.config.use_batch:
            batched = self._lower_batch(plan)
            if batched is not None:
                return BatchBridgeOp(batched, plan.output_schema(self.catalog))
        if isinstance(plan, SharedScan):
            if self.shared_lowering is not None:
                source = self.shared_lowering.row_source(plan)
                if source is not None:
                    return source
            return self.lower(plan.source)
        if isinstance(plan, TableScan):
            return self._lower_scan(plan)
        if isinstance(plan, Values):
            return ValuesOp(plan.schema, plan.rows)
        if isinstance(plan, Select):
            return self._lower_select(plan)
        if isinstance(plan, Project):
            child = self.lower(plan.child)
            return ProjectOp(child, plan.projections, plan.output_schema(self.catalog))
        if isinstance(plan, Join):
            return self._lower_join(plan)
        if isinstance(plan, Aggregate):
            child = self.lower(plan.child)
            return HashAggregateOp(
                child, plan.group_by, plan.aggregates, plan.output_schema(self.catalog)
            )
        if isinstance(plan, Sort):
            return SortOp(self.lower(plan.child), plan.keys)
        if isinstance(plan, Limit):
            return LimitOp(self.lower(plan.child), plan.count)
        if isinstance(plan, Distinct):
            return DistinctOp(self.lower(plan.child))
        if isinstance(plan, Union):
            left = self.lower(plan.left)
            right = self.lower(plan.right)
            return UnionOp(left, right, plan.output_schema(self.catalog))
        if isinstance(plan, Fixpoint):
            return self._lower_fixpoint(plan)
        if isinstance(plan, RecursiveRef):
            binding = self.recursive_cells.get(plan.name)
            if binding is None:
                raise PlanError(
                    f"recursive reference {plan.name!r} outside an enclosing Fixpoint"
                )
            cell, source_names = binding
            return RecursiveSourceOp(plan.schema, cell, source_names)
        raise PlanError(f"cannot lower logical node {type(plan).__name__}")

    # -- scans and selections ------------------------------------------------------------

    def _lower_scan(self, plan: TableScan) -> PhysicalOperator:
        table = self.catalog.table(plan.table_name)
        return TableScanOp(table, plan.output_schema(self.catalog), plan.alias)

    def _lower_select(self, plan: Select) -> PhysicalOperator:
        child = plan.child
        if self.config.use_indexes and isinstance(child, TableScan):
            indexed = self._try_index_scan(child, plan.predicate)
            if indexed is not None:
                return indexed
        lowered = self.lower(child)
        return FilterOp(lowered, plan.predicate)

    def _match_index(
        self, table_name: str, predicate: Expression
    ) -> tuple[str, list[tuple[Any, Any]]] | None:
        """Find an index covering the predicate's constant bounds, if any.

        Pure decision, no operator construction — shared by the row path
        (:meth:`_try_index_scan`) and the batch path and kernel compiler
        (which *decline* when an index applies, since an index scan skips
        rows entirely).
        Returns ``(index_name, per-column (low, high) bounds)``.
        """
        table = self.catalog.table(table_name)
        if not table.indexes:
            return None
        conjuncts = (
            predicate.conjuncts() if isinstance(predicate, BinaryOp) else [predicate]
        )
        # Collect per-column constant bounds: column -> [low, high].
        bounds: dict[str, list[Any]] = {}
        for conjunct in conjuncts:
            parsed = _constant_comparison(conjunct)
            if parsed is None:
                continue
            column, op, value = parsed
            column = column.split(".")[-1]
            entry = bounds.setdefault(column, [None, None])
            if op == "==":
                entry[0] = value if entry[0] is None else max(entry[0], value)
                entry[1] = value if entry[1] is None else min(entry[1], value)
            elif op in (">", ">="):
                entry[0] = value if entry[0] is None else max(entry[0], value)
            elif op in ("<", "<="):
                entry[1] = value if entry[1] is None else min(entry[1], value)
        if not bounds:
            return None
        for index_name, index in table.indexes.items():
            index_cols = [c.split(".")[-1] for c in index.columns]
            if not index_cols or not all(c in bounds for c in index_cols):
                continue
            return index_name, [tuple(bounds[c]) for c in index_cols]
        return None

    def _try_index_scan(self, scan: TableScan, predicate: Expression) -> PhysicalOperator | None:
        """Use a table index for constant equality / range conjuncts."""
        matched = self._match_index(scan.table_name, predicate)
        if matched is None:
            return None
        index_name, index_bounds = matched
        table = self.catalog.table(scan.table_name)
        schema = scan.output_schema(self.catalog)
        scan_op = IndexRangeScanOp(table, schema, index_name, index_bounds, scan.alias)
        # The index may be approximate on ties/borders; always re-check.
        return FilterOp(scan_op, predicate)

    # -- joins ------------------------------------------------------------------------------

    def _lower_join(self, plan: Join) -> PhysicalOperator:
        schema = plan.output_schema(self.catalog)
        if plan.how == "cross" or plan.condition is None:
            left = self.lower(plan.left)
            right = self.lower(plan.right)
            if plan.how == "left":
                return NestedLoopJoinOp(left, right, None, schema, how="left")
            return CrossJoinOp(left, right, schema)
        left_schema = plan.left.output_schema(self.catalog)
        right_schema = plan.right.output_schema(self.catalog)
        conjuncts = (
            plan.condition.conjuncts()
            if isinstance(plan.condition, BinaryOp)
            else [plan.condition]
        )
        equi = _extract_equi_keys(conjuncts, left_schema, right_schema)
        if equi:
            left_keys, right_keys, residual_conjuncts = equi
            residual = and_all(residual_conjuncts) if residual_conjuncts else None
            return HashJoinOp(
                self.lower(plan.left),
                self.lower(plan.right),
                left_keys,
                right_keys,
                schema,
                residual=residual,
                how=plan.how,
            )
        if plan.how == "inner":
            probe = _extract_range_probe(conjuncts, left_schema, right_schema)
            if probe:
                dimensions, residual_conjuncts = probe
                indexed = (
                    self._try_index_probe_join(plan, dimensions, residual_conjuncts, schema)
                    if self.config.use_indexes
                    else None
                )
                if indexed is not None:
                    return indexed
                residual = and_all(residual_conjuncts) if residual_conjuncts else None
                op = RangeProbeJoinOp(
                    self.lower(plan.left), self.lower(plan.right), dimensions, schema, residual=residual
                )
                op.stats_hook = self.band_hook(plan.right, dimensions)
                return op
        return NestedLoopJoinOp(
            self.lower(plan.left), self.lower(plan.right), plan.condition, schema, how=plan.how
        )

    def _try_index_probe_join(
        self,
        plan: Join,
        dimensions: Sequence[tuple[str, Expression, Expression]],
        residual_conjuncts: Sequence[Expression],
        schema: Schema,
    ) -> PhysicalOperator | None:
        """Lower a band join to a persistent-index probe when one applies.

        The inner side must be a (possibly filtered) base-table scan with a
        registered range-capable index over probe columns; the transient
        grid stays as fallback for every other shape.  A matched index
        always wins: it skips the per-execution rebuild of a grid over the
        whole inner side (``CostModel.band_join_work`` encodes the same
        ordering for plan costing).  This assumes the index is reasonably
        sized for the workload's probe widths — true for advisor-created
        grids (cells sized from observed widths); a grossly mis-sized
        manual index can probe more cells than the transient grid would
        have, and the remedies are re-registering it with a better cell
        size or ``use_indexes=False``.  Folded inner Select predicates
        join the residual, so bypassing the inner operator tree never
        loses a filter.
        """
        matched = match_band_index(self.catalog, plan.right, dimensions)
        if matched is None:
            return None
        table, index_name, alias, folded = matched
        residual_parts = list(residual_conjuncts) + list(folded)
        residual = and_all(residual_parts) if residual_parts else None
        op = IndexProbeJoinOp(
            self.lower(plan.left),
            table,
            index_name,
            dimensions,
            schema,
            residual=residual,
            alias=alias,
        )
        op.stats_hook = self.band_hook(plan.right, dimensions)
        return op

    def band_hook(
        self,
        inner_plan: LogicalPlan,
        dimensions: Sequence[tuple[str, Expression, Expression]],
    ) -> Any:
        """The advisor's probe-statistics hook for a band join over
        *inner_plan* (shared by the row operators and the band kernel), or
        ``None`` without an advisor or a base-table inner side."""
        if self.index_advisor is None:
            return None
        info = inner_scan_info(self.catalog, inner_plan)
        if info is None:
            return None
        table, _, _ = info
        try:
            columns = tuple(
                table.schema.resolve(column.split(".")[-1]) for column, _, _ in dimensions
            )
        except SchemaError:
            return None
        return self.index_advisor.make_hook(table.name, columns)

    # -- batch (columnar) lowering ----------------------------------------------------

    def _lower_batch(self, plan: LogicalPlan) -> BatchOperator | None:
        """Lower *plan* to a batch operator tree, or ``None`` to stay on rows.

        A fused kernel wins where the kernel compiler accepts the subtree;
        otherwise the node lowers to its interpreted batch operator over
        children lowered the same way.
        """
        memo = self._batch_memo.get(id(plan))
        if memo is not None and memo[0] is plan:
            return memo[1]
        op = None
        if self.kernel_lowering is not None:
            op = self.kernel_lowering.lower(plan, self)
        if op is None:
            op = self._lower_batch_node(plan)
        self._batch_memo[id(plan)] = (plan, op)
        return op

    def _lower_batch_node(self, plan: LogicalPlan) -> BatchOperator | None:
        """The interpreted batch operator for *plan*'s root node.

        The decision is made entirely at plan time: every expression is
        checked with :func:`batch_supported` against the child's *batch*
        column names (which equal the row dicts' keys), so a chosen batch
        plan cannot fail to compile at runtime.  Nodes that decline —
        index-friendly selections, range-probe joins no kernel took, sorts,
        limits — put their ancestors on the row path, while their children
        may still batch independently via :meth:`lower`.
        """
        if isinstance(plan, SharedScan):
            if self.shared_lowering is not None:
                source = self.shared_lowering.batch_source(plan)
                if source is not None:
                    return source
            return self._lower_batch(plan.source)
        if isinstance(plan, TableScan):
            table = self.catalog.table(plan.table_name)
            return BatchTableScanOp(table, plan.output_schema(self.catalog), plan.alias)
        if isinstance(plan, Values):
            schema = plan.schema
            wanted = set(schema.names)
            if all(set(row) == wanted for row in plan.rows):
                return BatchValuesOp(schema, plan.rows)
            return None
        if isinstance(plan, Select):
            # An index scan skips rows entirely; prefer it over batching.
            if self.config.use_indexes and isinstance(plan.child, TableScan):
                if self._match_index(plan.child.table_name, plan.predicate) is not None:
                    return None
            child = self._lower_batch(plan.child)
            if child is None or not batch_supported(plan.predicate, child.names):
                return None
            return BatchFilterOp(child, plan.predicate)
        if isinstance(plan, Project):
            child = self._lower_batch(plan.child)
            if child is None:
                return None
            if not all(batch_supported(e, child.names) for _, e in plan.projections):
                return None
            return BatchProjectOp(child, plan.projections, plan.output_schema(self.catalog))
        if isinstance(plan, Join):
            return self._lower_batch_join(plan)
        if isinstance(plan, Aggregate):
            return self._lower_batch_aggregate(plan)
        return None

    def _lower_batch_join(self, plan: Join) -> BatchOperator | None:
        left = self._lower_batch(plan.left)
        right = self._lower_batch(plan.right)
        if left is None or right is None:
            return None
        schema = plan.output_schema(self.catalog)
        if plan.how == "cross" or plan.condition is None:
            return BatchNestedLoopJoinOp(left, right, None, schema, how=plan.how if plan.how == "left" else "inner")
        left_schema = plan.left.output_schema(self.catalog)
        right_schema = plan.right.output_schema(self.catalog)
        conjuncts = (
            plan.condition.conjuncts()
            if isinstance(plan.condition, BinaryOp)
            else [plan.condition]
        )
        combined_names = left.names + right.names
        equi = _extract_equi_keys(conjuncts, left_schema, right_schema)
        if equi:
            left_keys, right_keys, residual_conjuncts = equi
            if not all(batch_supported(k, left.names) for k in left_keys):
                return None
            if not all(batch_supported(k, right.names) for k in right_keys):
                return None
            residual = and_all(residual_conjuncts) if residual_conjuncts else None
            if residual is not None and not batch_supported(residual, combined_names):
                return None
            return BatchHashJoinOp(
                left, right, left_keys, right_keys, schema, residual=residual, how=plan.how
            )
        if plan.how == "inner" and _extract_range_probe(conjuncts, left_schema, right_schema):
            # Interpreted, the grid/index-probing row operators beat a
            # batch nested loop on the Figure-2 band-join shape.
            return None
        if not batch_supported(plan.condition, combined_names):
            return None
        return BatchNestedLoopJoinOp(left, right, plan.condition, schema, how=plan.how)

    def _lower_batch_aggregate(self, plan: Aggregate) -> BatchOperator | None:
        child = self._lower_batch(plan.child)
        if child is None:
            return None
        try:
            child_schema = plan.child.output_schema(self.catalog)
            resolved = [child_schema.resolve(g) for g in plan.group_by]
        except SchemaError:
            return None
        group_columns = []
        for name in resolved:
            batch_name = resolve_batch_column(name, child.names)
            if batch_name is None:
                return None
            group_columns.append(batch_name)
        for spec in plan.aggregates:
            if spec.argument is not None and not batch_supported(spec.argument, child.names):
                return None
        return BatchAggregateOp(
            child, plan.group_by, group_columns, plan.aggregates, plan.output_schema(self.catalog)
        )


    # -- fixpoint (recursive) lowering -------------------------------------------------

    def _lower_fixpoint(self, plan: Fixpoint) -> PhysicalOperator:
        """Lower a Fixpoint: bind its RecursiveRef slots, specialize the step.

        The accumulator cell is installed under
        :attr:`RecursiveRef.ACCUMULATOR` while the step (and its delta
        variants) lower, so nested ``RecursiveRef`` leaves resolve to
        sources reading the current frontier.  The step body itself goes
        through the ordinary :meth:`lower`, which is what lets batch
        kernels, index scans and MQO shared sources apply inside a
        recursive plan.
        """
        schema = plan.output_schema(self.catalog)  # validates base/step alignment
        base_op = self.lower(plan.base)
        accum_cell = RecursiveCell(RecursiveRef.ACCUMULATOR)
        saved = self.recursive_cells.get(RecursiveRef.ACCUMULATOR)
        self.recursive_cells[RecursiveRef.ACCUMULATOR] = (accum_cell, schema.names)
        try:
            linear = self._match_linear_step(plan, schema)
            step_op = self.lower(plan.step) if linear is None else None
            variants = (
                self._lower_delta_variants(plan)
                if self.config.use_fixpoint and self.config.use_incremental
                else []
            )
        finally:
            if saved is None:
                self.recursive_cells.pop(RecursiveRef.ACCUMULATOR, None)
            else:
                self.recursive_cells[RecursiveRef.ACCUMULATOR] = saved
        base_tables = [
            self.catalog.table(name)
            for name in sorted(plan.base.referenced_tables())
            if self.catalog.has_table(name)
        ]
        step_tables = [
            self.catalog.table(name)
            for name in sorted(plan.step.referenced_tables())
            if self.catalog.has_table(name)
        ]
        return FixpointOp(
            schema,
            base_op,
            accum_cell,
            step_op,
            linear,
            semi_naive=self.config.use_fixpoint,
            max_rounds=plan.max_rounds,
            distinct_on=plan.distinct_on,
            base_tables=base_tables,
            step_tables=step_tables,
            delta_variants=variants,
            warm_restart=self.config.use_incremental,
        )

    def _match_linear_step(
        self, plan: Fixpoint, schema: Schema
    ) -> LinearStep | None:
        """Specialize the linear-recursion shape ``rec ⋈ build``.

        Matches ``Project?(Select*(Join(rec-side, build-side)))`` where
        exactly one join input is the (possibly Select-wrapped) accumulator
        reference and the join has equi keys.  The build side is lowered
        once and hashed per execution; every round then probes it with the
        frontier instead of re-executing the step subtree.  ``None`` keeps
        the generic re-execution path (still correct, just not amortized).
        """
        node: LogicalPlan = plan.step
        projections: Sequence[tuple[str, Expression]] | None = None
        outer_filters: list[Expression] = []
        if isinstance(node, Project):
            projections = node.projections
            node = node.child
        while isinstance(node, Select):
            outer_filters.extend(_conjuncts(node.predicate))
            node = node.child
        if not isinstance(node, Join) or node.how != "inner" or node.condition is None:
            return None

        def unwrap(side: LogicalPlan) -> tuple[LogicalPlan, list[Expression]]:
            filters: list[Expression] = []
            while isinstance(side, Select):
                filters.extend(_conjuncts(side.predicate))
                side = side.child
            return side, filters

        left_leaf, left_filters = unwrap(node.left)
        right_leaf, right_filters = unwrap(node.right)

        def is_accum(leaf: LogicalPlan) -> bool:
            return (
                isinstance(leaf, RecursiveRef)
                and leaf.name == RecursiveRef.ACCUMULATOR
                and tuple(leaf.schema.names) == tuple(schema.names)
            )

        rec_left = is_accum(left_leaf)
        rec_right = is_accum(right_leaf)
        if rec_left == rec_right:
            return None  # need exactly one recursive input
        build_plan = node.right if rec_left else node.left
        if any(isinstance(n, RecursiveRef) for n in build_plan.walk()):
            return None  # non-linear recursion: fall back to re-execution
        rec_filters = left_filters if rec_left else right_filters

        try:
            left_schema = node.left.output_schema(self.catalog)
            right_schema = node.right.output_schema(self.catalog)
        except (PlanError, SchemaError):
            return None
        equi = _extract_equi_keys(
            _conjuncts(node.condition), left_schema, right_schema
        )
        if equi is None:
            return None
        left_keys, right_keys, residual = equi
        rec_keys, build_keys = (
            (left_keys, right_keys) if rec_left else (right_keys, left_keys)
        )
        if projections is None:
            combined = left_schema.concat(right_schema)
            projections = [(name, ColumnRef(name)) for name in combined.names]
        build_op = self.lower(build_plan)
        return LinearStep(
            build_op,
            rec_keys,
            build_keys,
            projections,
            rec_filters=rec_filters,
            residual=list(residual) + outer_filters,
            rec_side_left=rec_left,
            build_delta=self._lower_build_delta(build_plan),
        )

    def _lower_build_delta(
        self, build_plan: LogicalPlan
    ) -> tuple[Table, RecursiveCell, PhysicalOperator] | None:
        """A delta variant of a linear step's build side, if it is derived
        from exactly one table scanned exactly once.  Warm restarts then
        append just the inserted rows to the build hash instead of
        re-hashing the whole side (``LinearStep.refresh``)."""
        if not (self.config.use_fixpoint and self.config.use_incremental):
            return None
        names = [
            name
            for name in sorted(build_plan.referenced_tables())
            if self.catalog.has_table(name)
        ]
        if len(names) != 1:
            return None
        name = names[0]
        occurrences = sum(
            1
            for n in build_plan.walk()
            if isinstance(n, TableScan) and n.table_name == name
        )
        if occurrences != 1:
            return None
        table = self.catalog.table(name)
        cell_name = f"__builddelta__:{name}"
        cell = RecursiveCell(cell_name)
        replaced = _replace_scan(build_plan, name, cell_name, self.catalog)
        if replaced is None:
            return None
        self.recursive_cells[cell_name] = (cell, table.schema.names)
        try:
            op = self.lower(replaced)
        finally:
            self.recursive_cells.pop(cell_name, None)
        return (table, cell, op)

    def _lower_delta_variants(self, plan: Fixpoint) -> list[_DeltaVariant]:
        """Per-table delta variants of the step for incremental re-closure.

        For each base table the step scans exactly once, lower a copy of
        the step with that scan replaced by a delta source; after
        insert-only churn the FixpointOp evaluates the variant with just
        the inserted rows against the cached closure.  Tables scanned more
        than once are skipped (the bilinear delta rule would need cross
        terms), as are scans hidden behind shared materializations.
        """
        variants: list[_DeltaVariant] = []
        for name in sorted(plan.step.referenced_tables()):
            if not self.catalog.has_table(name):
                continue
            occurrences = sum(
                1
                for n in plan.step.walk()
                if isinstance(n, TableScan) and n.table_name == name
            )
            if occurrences != 1:
                continue
            table = self.catalog.table(name)
            cell_name = f"__delta__:{name}"
            cell = RecursiveCell(cell_name)
            replaced = _replace_scan(plan.step, name, cell_name, self.catalog)
            if replaced is None:
                continue
            self.recursive_cells[cell_name] = (cell, table.schema.names)
            try:
                op = self.lower(replaced)
            finally:
                self.recursive_cells.pop(cell_name, None)
            variants.append(_DeltaVariant(table, cell, op))
        return variants


def _conjuncts(predicate: Expression) -> list[Expression]:
    if isinstance(predicate, BinaryOp):
        return list(predicate.conjuncts())
    return [predicate]


def _replace_scan(
    plan: LogicalPlan, table_name: str, cell_name: str, catalog: Catalog
) -> LogicalPlan | None:
    """Copy *plan* with the scan of *table_name* replaced by a delta ref.

    Returns ``None`` when no direct scan was found (e.g. the scan sits
    behind a SharedScan, whose children are deliberately opaque).
    """
    if isinstance(plan, TableScan) and plan.table_name == table_name:
        return RecursiveRef(plan.output_schema(catalog), name=cell_name)
    children = plan.children()
    if not children:
        return None
    new_children: list[LogicalPlan] = []
    found = False
    for child in children:
        replaced = _replace_scan(child, table_name, cell_name, catalog)
        if replaced is None:
            new_children.append(child)
        else:
            new_children.append(replaced)
            found = True
    if not found:
        return None
    return plan.with_children(new_children)


# -- condition analysis helpers ------------------------------------------------------------


def _constant_comparison(expr: Expression) -> tuple[str, str, Any] | None:
    """Match ``col <op> literal`` / ``literal <op> col``; return (col, op, value)."""
    if not isinstance(expr, BinaryOp) or expr.op not in ("==", "<", "<=", ">", ">="):
        return None
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}
    if isinstance(expr.left, ColumnRef) and isinstance(expr.right, Literal):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.right, ColumnRef) and isinstance(expr.left, Literal):
        return expr.right.name, flipped[expr.op], expr.left.value
    return None


def _side_of(column: str, left_schema: Schema, right_schema: Schema) -> str | None:
    """Which join side produces *column*: 'left', 'right', or None/ambiguous."""
    in_left = column in left_schema
    in_right = column in right_schema
    if in_left and not in_right:
        return "left"
    if in_right and not in_left:
        return "right"
    return None


def _expression_side(expr: Expression, left_schema: Schema, right_schema: Schema) -> str | None:
    """Which side all columns of *expr* come from ('left'/'right'), or None."""
    sides = set()
    for column in expr.columns():
        side = _side_of(column, left_schema, right_schema)
        if side is None:
            return None
        sides.add(side)
    if len(sides) == 1:
        return sides.pop()
    if not sides:
        return "const"
    return None


def _extract_equi_keys(
    conjuncts: Sequence[Expression], left_schema: Schema, right_schema: Schema
) -> tuple[list[Expression], list[Expression], list[Expression]] | None:
    """Split conjuncts into equi-join keys and residual predicates."""
    left_keys: list[Expression] = []
    right_keys: list[Expression] = []
    residual: list[Expression] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, BinaryOp) and conjunct.op == "==":
            lhs_side = _expression_side(conjunct.left, left_schema, right_schema)
            rhs_side = _expression_side(conjunct.right, left_schema, right_schema)
            if lhs_side == "left" and rhs_side == "right":
                left_keys.append(conjunct.left)
                right_keys.append(conjunct.right)
                continue
            if lhs_side == "right" and rhs_side == "left":
                left_keys.append(conjunct.right)
                right_keys.append(conjunct.left)
                continue
        residual.append(conjunct)
    if not left_keys:
        return None
    return left_keys, right_keys, residual


def _extract_range_probe(
    conjuncts: Sequence[Expression], left_schema: Schema, right_schema: Schema
) -> tuple[list[tuple[str, Expression, Expression]], list[Expression]] | None:
    """Match the band-join shape: per right column, a lower and upper bound
    expression computed from the left row.

    The probe operators check the extracted bounds *inclusively*, which is
    exact for ``<=`` / ``>=`` conjuncts.  A strict conjunct (``<`` / ``>``)
    still provides a usable bound — the inclusive check merely
    over-approximates — but it is additionally kept as a residual so the
    strict comparison is re-applied to every candidate.
    """
    lows: dict[str, Expression] = {}
    highs: dict[str, Expression] = {}
    residual: list[Expression] = []
    #: Consumed conjuncts as ``(conjunct, right column, normalized op)``.
    consumed: list[tuple[Expression, str, str]] = []
    for conjunct in conjuncts:
        matched = False
        if isinstance(conjunct, BinaryOp) and conjunct.op in ("<", "<=", ">", ">="):
            for col_expr, other, op in (
                (conjunct.left, conjunct.right, conjunct.op),
                (conjunct.right, conjunct.left, {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[conjunct.op]),
            ):
                if not isinstance(col_expr, ColumnRef):
                    continue
                if _side_of(col_expr.name, left_schema, right_schema) != "right":
                    continue
                other_side = _expression_side(other, left_schema, right_schema)
                if other_side not in ("left", "const"):
                    continue
                column = col_expr.name
                if op in (">", ">="):
                    if column not in lows:
                        lows[column] = other
                        consumed.append((conjunct, column, op))
                        matched = True
                else:
                    if column not in highs:
                        highs[column] = other
                        consumed.append((conjunct, column, op))
                        matched = True
                break
        if not matched:
            residual.append(conjunct)
    dimensions = []
    for column in lows:
        if column in highs:
            dimensions.append((column, lows[column], highs[column]))
    if not dimensions:
        return None
    paired_columns = {c for c, _, _ in dimensions}
    for conjunct, column, op in consumed:
        if column not in paired_columns:
            # The bound did not pair up: keep the whole conjunct as residual.
            residual.append(conjunct)
        elif op in ("<", ">"):
            # Strict bound: the probe's inclusive range over-approximates,
            # so the conjunct must be re-checked on every candidate.
            residual.append(conjunct)
    return dimensions, residual
