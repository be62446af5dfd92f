"""Lowering logical plans to physical operator trees.

The physical planner lowers for one of two targets
(:class:`~repro.engine.config.EngineConfig`):

* ``use_batch`` on: every node is first offered to the kernel compiler
  (:mod:`repro.engine.compile.kernels`); a fused kernel — over leaf batch
  sources (:mod:`repro.engine.operators.batch_ops`) or other kernels — is
  bridged back to row dicts by :class:`BatchBridgeOp`.  Kernels are the
  only plans that use an index: a band join probes a registered index
  covering its inner side (:func:`match_band_index`);
* everything no kernel takes, and every plan of the ``reference()`` row
  path, lowers one-to-one on the row operators, with children again free
  to become kernels below: joins become hash joins (equi conjuncts),
  transient-grid band joins (the Figure 2 "units within range" shape,
  :class:`RangeProbeJoinOp`), or nested-loop joins, which also serve
  condition-less cross products.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.engine.algebra import (
    Aggregate,
    Exchange,
    Fixpoint,
    Join,
    LogicalPlan,
    Project,
    RecursiveRef,
    Select,
    ShardedScan,
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
    and_all,
)
from repro.engine.operators import (
    BatchBridgeOp,
    BatchOperator,
    BatchTableScanOp,
    BatchValuesOp,
    ExchangeOp,
    FilterOp,
    HashAggregateOp,
    HashJoinOp,
    NestedLoopJoinOp,
    PhysicalOperator,
    ProjectOp,
    RangeProbeJoinOp,
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
    """Match a band-join inner side against a registered index.

    ``dimensions`` are the probe triples from :func:`_extract_range_probe`;
    coverage is decided by :meth:`Table.find_index_covering` (the index
    over the largest subset of the probe columns).  Returns
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

    Reads the three switches of its :class:`~repro.engine.config.EngineConfig`:
    ``use_batch`` lowers fusable plans to compiled kernels, ``False``
    forces row-at-a-time plans (the oracle of the equivalence tests);
    ``use_fixpoint=False`` lowers Fixpoint nodes to the naive reference
    loop (full accumulator every round); and with ``use_fixpoint`` on,
    ``use_incremental`` lowers per-table delta variants of fixpoint steps
    so cached closures warm-restart after insert-only churn.

    ``index_advisor`` (an
    :class:`~repro.engine.optimizer.adaptive.IndexAdvisor`) receives
    execution-time probe statistics from lowered band joins so it can
    create indexes for join columns that stay hot across ticks.
    ``kernel_cache`` is the dict compiled kernel programs are kept in; the
    executor passes the one it clears when plans go stale.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig,
        *,
        index_advisor: Any = None,
        kernel_cache: dict[Any, Any] | None = None,
    ):
        self.catalog = catalog
        self.config = config
        self.index_advisor = index_advisor
        #: Binding slots for RecursiveRef leaves, installed while lowering
        #: an enclosing Fixpoint: name -> (cell, positional source names).
        self.recursive_cells: dict[str, tuple[RecursiveCell, Sequence[str] | None]] = {}
        #: Set by the executor while lowering a tick pipeline: an object
        #: with a ``batch_source(shared_scan)`` method resolving
        #: :class:`SharedScan` leaves to batch operators that serve the
        #: tick-shared materialization.  ``None`` outside
        #: pipeline lowering — SharedScan then falls back to lowering its
        #: own source subtree, which is always correct.
        self.shared_lowering: Any = None
        #: The kernel compiler (``None`` without ``use_batch``), consulted
        #: at every node :meth:`_lower_batch` visits, so unfusable roots
        #: still get fused subtrees.
        self.kernel_lowering: Any = None
        if config.use_batch:
            # Deferred: the kernel compiler imports this module's helpers.
            from repro.engine.compile.kernels import KernelLowering

            self.kernel_lowering = KernelLowering(kernel_cache)
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
            # Expand into Select-over-TableScan first so kernels apply to
            # the shard slice unchanged.
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
        return FilterOp(self.lower(plan.child), plan.predicate)

    # -- joins ------------------------------------------------------------------------------

    def _lower_join(self, plan: Join) -> PhysicalOperator:
        schema = plan.output_schema(self.catalog)
        if plan.condition is None:
            return NestedLoopJoinOp(
                self.lower(plan.left), self.lower(plan.right), None, schema, how=plan.how
            )
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
                residual = and_all(residual_conjuncts) if residual_conjuncts else None
                op = RangeProbeJoinOp(
                    self.lower(plan.left), self.lower(plan.right), dimensions, schema, residual=residual
                )
                op.stats_hook = self.band_hook(plan.right, dimensions)
                return op
        return NestedLoopJoinOp(
            self.lower(plan.left), self.lower(plan.right), plan.condition, schema, how=plan.how
        )

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
        """Lower *plan* to a kernel or a leaf batch source, or ``None`` to
        stay on rows."""
        memo = self._batch_memo.get(id(plan))
        if memo is not None and memo[0] is plan:
            return memo[1]
        op = self.kernel_lowering.lower(plan, self) or self._batch_source(plan)
        self._batch_memo[id(plan)] = (plan, op)
        return op

    def _batch_source(self, plan: LogicalPlan) -> BatchOperator | None:
        """The batch operator reading a leaf: a base table, in-plan values,
        or a tick-shared materialization."""
        if isinstance(plan, SharedScan):
            if self.shared_lowering is not None:
                source = self.shared_lowering.batch_source(plan)
                if source is not None:
                    return source
            return self._lower_batch(plan.source)
        if isinstance(plan, TableScan) and self.catalog.has_table(plan.table_name):
            table = self.catalog.table(plan.table_name)
            return BatchTableScanOp(table, plan.output_schema(self.catalog), plan.alias)
        if isinstance(plan, Values):
            schema = plan.schema
            wanted = set(schema.names)
            if all(set(row) == wanted for row in plan.rows):
                return BatchValuesOp(schema, plan.rows)
        return None

    # -- fixpoint (recursive) lowering -------------------------------------------------

    def _lower_fixpoint(self, plan: Fixpoint) -> PhysicalOperator:
        """Lower a Fixpoint: bind its RecursiveRef slots, specialize the step.

        The accumulator cell is installed under
        :attr:`RecursiveRef.ACCUMULATOR` while the step (and its delta
        variants) lower, so nested ``RecursiveRef`` leaves resolve to
        sources reading the current frontier.  The step body itself goes
        through the ordinary :meth:`lower`, which is what lets batch
        kernels and MQO shared sources apply inside a recursive plan.
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
