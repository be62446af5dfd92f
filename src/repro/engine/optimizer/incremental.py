"""Lowering logical plans to delta-driven incremental form.

The :class:`IncrementalPlanner` decides, entirely at plan time, whether a
registered per-tick query can be maintained from table deltas
(:mod:`repro.engine.operators.incremental`) instead of being re-executed
from scratch every tick.  The decision is conservative: a plan is lowered
only when every node is *provably* delta-correct, and anything else keeps
the query on the batch/row paths.

Fallback rules (mirroring the docstring in ``docs/ARCHITECTURE.md``):

* Scans, selections, projections and unions lower one-to-one; any other
  node (``Values``, ``Fixpoint``, …) falls back.
* Joins lower to :class:`~repro.engine.operators.incremental.DeltaJoinOp`:
  equi joins (inner and left outer, the accum-loop shape), whose terms
  fetch the opposite side by key where it can, and keyless inner joins
  (cross products and non-equi conditions such as the Figure-2 band join).
  A band join whose right side is a base table gets a
  :class:`~repro.engine.operators.incremental.BandIndexProbe` and, when
  its left side is a filtered base table too, an
  :class:`~repro.engine.operators.incremental.InverseBandProbe`, so its
  terms probe persistent indexes.  Keyless *left* joins fall back — their
  padding terms would re-probe every left row.
* Aggregates using ``first`` / ``last`` / ``collect`` — input-order
  dependent, which a maintained multiset cannot reproduce; all other
  combinators lower to
  :class:`~repro.engine.operators.incremental.DeltaAggregateOp`.

Every stateless node also carries a lowered physical plan for its *full*
current output (used by full rebuilds and by join terms no key or index
serves), so the incremental path reuses the columnar batch machinery
rather than reimplementing evaluation.
"""

from __future__ import annotations

from repro.engine.algebra import (
    Aggregate,
    Join,
    LogicalPlan,
    Project,
    Select,
    TableScan,
    Union,
)
from repro.engine.catalog import Catalog
from repro.engine.errors import SchemaError
from repro.engine.expressions import BinaryOp, ColumnRef, Expression, Literal, UnaryOp, and_all
from repro.engine.operators.incremental import (
    MAINTAINABLE_AGGS,
    BandIndexProbe,
    DeltaAggregateOp,
    DeltaFilterOp,
    DeltaJoinOp,
    DeltaOperator,
    DeltaProjectOp,
    DeltaScanOp,
    DeltaUnionOp,
    IncrementalView,
    InverseBandProbe,
    column_positions,
)
from repro.engine.optimizer.physical import (
    PhysicalPlanner,
    _extract_equi_keys,
    _extract_range_probe,
)

__all__ = ["IncrementalPlanner"]


class IncrementalPlanner:
    """Builds :class:`IncrementalView` instances for maintainable plans."""

    def __init__(self, catalog: Catalog, physical_planner: PhysicalPlanner):
        self.catalog = catalog
        self.physical_planner = physical_planner

    def build_view(self, plan: LogicalPlan) -> IncrementalView | None:
        """Lower *plan* to a maintained view, or ``None`` to stay full.

        Enables change logging on every referenced base table (idempotent;
        before the first refresh the logs are empty and the view performs
        one full rebuild to seed its state).
        """
        root = self._build(plan)
        if root is None:
            return None
        tables = {
            name: self.catalog.table(name) for name in plan.referenced_tables()
        }
        for table in tables.values():
            table.enable_change_log()
        return IncrementalView(root, tables, root.names)

    # -- recursive lowering ---------------------------------------------------------

    def _build(self, plan: LogicalPlan) -> DeltaOperator | None:
        if isinstance(plan, TableScan):
            table = self.catalog.table(plan.table_name)
            return DeltaScanOp(table, plan.output_schema(self.catalog).names)
        if isinstance(plan, Select):
            child = self._build(plan.child)
            if child is None:
                return None
            return DeltaFilterOp(child, plan.predicate, self._full_plan(plan))
        if isinstance(plan, Project):
            child = self._build(plan.child)
            if child is None:
                return None
            return DeltaProjectOp(child, plan.projections, self._full_plan(plan))
        if isinstance(plan, Join):
            return self._build_join(plan)
        if isinstance(plan, Aggregate):
            return self._build_aggregate(plan)
        if isinstance(plan, Union):
            left = self._build(plan.left)
            right = self._build(plan.right)
            if left is None or right is None:
                return None
            return DeltaUnionOp(left, right, self._full_plan(plan))
        # Anything else (Values, Fixpoint, …) stays on the full paths.
        return None

    def _build_join(self, plan: Join) -> DeltaOperator | None:
        left = self._build(plan.left)
        right = self._build(plan.right)
        if left is None or right is None:
            return None
        how = "left" if plan.how == "left" else "inner"
        if plan.condition is None:
            if how == "left":
                # Keyless left join (see below): not worth maintaining.
                return None
            return DeltaJoinOp(
                left, right, [], [], None, self._full_plan(plan), how=how
            )
        left_schema = plan.left.output_schema(self.catalog)
        right_schema = plan.right.output_schema(self.catalog)
        conjuncts = (
            plan.condition.conjuncts()
            if isinstance(plan.condition, BinaryOp)
            else [plan.condition]
        )
        equi = _extract_equi_keys(conjuncts, left_schema, right_schema)
        if equi is not None:
            left_keys, right_keys, residual_conjuncts = equi
            residual = and_all(residual_conjuncts) if residual_conjuncts else None
            return DeltaJoinOp(
                left, right, left_keys, right_keys, residual, self._full_plan(plan), how=how
            )
        if how == "left":
            # A keyless left join would probe every left row against the
            # whole right side for the padding terms; not worth maintaining.
            return None
        # Non-equi inner condition (e.g. the Figure-2 band join): maintain it
        # as a keyless join with the condition as residual.  When the sides
        # are base tables whose band columns registered indexes cover, the
        # ΔA terms probe the right table's index and the ΔB terms the left
        # one's with the inverted band, so a refresh costs O(|Δ| ·
        # candidates); otherwise a term crosses its delta with the whole
        # other side.  Indexes are re-resolved per refresh, so
        # advisor-created ones help without re-registering the view.
        probe = self._band_probe(plan, conjuncts, left_schema, right_schema)
        if probe is not None:
            probe.inverse = self._inverse_band(left, probe)
        return DeltaJoinOp(
            left, right, [], [], plan.condition, self._full_plan(plan), how=how, band_probe=probe
        )

    def _band_probe(self, plan: Join, conjuncts, left_schema, right_schema):
        """A :class:`BandIndexProbe` for the join's inner side, if eligible."""
        if not isinstance(plan.right, TableScan) or not self.catalog.has_table(
            plan.right.table_name
        ):
            return None
        extraction = _extract_range_probe(conjuncts, left_schema, right_schema)
        if not extraction:
            return None
        table = self.catalog.table(plan.right.table_name)
        dimensions = []
        for column, low_expr, high_expr in extraction[0]:
            try:
                resolved = table.schema.resolve(column.split(".")[-1])
            except SchemaError:
                return None
            dimensions.append((resolved, low_expr, high_expr))
        probe = BandIndexProbe(table, dimensions)
        advisor = self.physical_planner.index_advisor
        if advisor is not None:
            probe.advisor_hook = advisor.make_hook(
                table.name, tuple(column for column, _, _ in dimensions)
            )
        return probe

    @staticmethod
    def _inverse_band(left: DeltaOperator, probe: BandIndexProbe) -> InverseBandProbe | None:
        """The probing of the left side for ``Anew ⋈ ΔB``, when it is a
        filtered base-table scan and every bound is ``A − w_lo`` / ``A + w_hi``
        with ``A`` a left column and each ``w`` a left column or constant."""
        filters, scan = [], left
        while isinstance(scan, DeltaFilterOp):
            filters.append(scan.keep)
            scan = scan.children[0]
        if not isinstance(scan, DeltaScanOp):
            return None
        columns, positions, widths = [], [], []
        for column, low, high in probe.dimensions:
            low_split, high_split = _band_split(low, -1), _band_split(high, 1)
            if low_split is None or high_split is None or low_split[0] != high_split[0]:
                return None
            found = column_positions(left.names, [low_split[0]])
            if found is None:
                return None
            columns.append(scan.table.schema.names[found[0]])
            positions.append(probe.table.schema.names.index(column))
            widths += [low_split[1], high_split[1]]
        return InverseBandProbe(scan, filters, columns, positions, widths)

    def _build_aggregate(self, plan: Aggregate) -> DeltaOperator | None:
        if any(spec.func not in MAINTAINABLE_AGGS for spec in plan.aggregates):
            return None
        child = self._build(plan.child)
        if child is None:
            return None
        try:
            child_schema = plan.child.output_schema(self.catalog)
            indices = [child_schema.index_of(g) for g in plan.group_by]
        except SchemaError:
            return None
        return DeltaAggregateOp(child, plan.group_by, indices, plan.aggregates)

    def _full_plan(self, plan: LogicalPlan):
        return self.physical_planner.lower(plan)


def _band_split(bound: Expression, sign: int) -> tuple[ColumnRef, Expression] | None:
    """Split a band bound into ``(A, w)`` with ``bound = A + sign·w``, where
    ``A`` is a column and ``w`` a column or a constant; ``None`` otherwise."""
    if isinstance(bound, ColumnRef):
        return bound, Literal(0)
    if not (
        isinstance(bound, BinaryOp)
        and bound.op in ("+", "-")
        and isinstance(bound.left, ColumnRef)
        and isinstance(bound.right, (ColumnRef, Literal))
    ):
        return None
    width = bound.right
    if (bound.op == "+") != (sign > 0):
        width = UnaryOp("-", width)
    return bound.left, width
