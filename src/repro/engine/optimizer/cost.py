"""Cardinality and cost estimation for logical plans.

The cost model is deliberately simple — the classic ``C_out`` metric (sum of
estimated intermediate result sizes) plus per-operator constants — because
what the adaptive optimizer of Section 4.1 needs is *relative* ordering of
candidate plans under different workload states, not absolute timings.
Cardinalities come from :mod:`repro.engine.statistics`: per-column
histograms for single-table predicates and row samples for correlated
multi-dimensional range predicates.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from repro.engine.expressions import BinaryOp, ColumnRef, Expression
from repro.engine.statistics import (
    DEFAULT_EQUALITY_SELECTIVITY,
    DEFAULT_SELECTIVITY,
    TableStatistics,
    estimate_selectivity,
    join_selectivity,
)

__all__ = ["CostModel", "PlanCost"]


@dataclass(frozen=True)
class PlanCost:
    """Estimated output cardinality and cumulative cost of a plan.

    ``cardinality`` is the expected number of output rows; ``cost`` is the
    C_out-style cumulative work of the whole subtree (intermediate result
    sizes plus per-operator constants).  Instances are ordered by ``cost``
    so candidate plans can be compared with ``min`` during join-order
    enumeration and adaptive plan selection.
    """

    cardinality: float
    cost: float

    def __lt__(self, other: "PlanCost") -> bool:
        return self.cost < other.cost


class CostModel:
    """Estimates cardinalities and C_out-style costs against a catalog.

    Cardinalities come from the catalog's collected statistics
    (:mod:`repro.engine.statistics`): per-column histograms for
    single-table predicates, distinct counts for group-by and equi-join
    selectivity, and fixed fallback selectivities where no statistics
    apply.  Costs sum estimated intermediate result sizes weighted by the
    per-operator constants below; only the *relative* ordering of candidate
    plans matters, so the constants are calibrated for plausibility, not
    wall-clock accuracy.  Both estimates read the *current* table sizes and
    statistics, which is what lets the adaptive optimizer get different
    answers for different workload states.
    """

    #: Per-row cost charged for producing one output row of any operator.
    ROW_COST = 1.0
    #: Extra per-row cost of evaluating a predicate or projection expression.
    EXPR_COST = 0.2
    #: Build-side cost factor for hash joins / aggregation.
    HASH_COST = 1.2
    #: Per probed cell / log-factor cost for index and band joins.
    INDEX_PROBE_COST = 4.0
    #: Per-inner-row cost of (re)building a transient band-join grid.  Paid
    #: on **every execution** by the grid-rebuild path; a registered table
    #: index amortizes it into the mutations that are happening anyway.
    GRID_BUILD_COST = 1.2
    #: Assumed iteration count of a Fixpoint (semi-naive rounds until the
    #: delta dries up).  Graph diameters vary wildly; a fixed moderate
    #: round count keeps recursive plans comparable to flat ones.
    FIXPOINT_ROUNDS = 8.0
    #: Assumed closure blow-up of a Fixpoint over its base (seed) relation.
    FIXPOINT_GROWTH = 10.0
    #: Assumed frontier size when costing a step body's RecursiveRef —
    #: mid-iteration cardinality is unknowable statically.
    REC_REF_CARD = 256.0
    #: Assumed wire bytes for one exchanged row (compact JSON, pre-deflate).
    EXCHANGE_ROW_BYTES = 64.0
    #: Cost per wire byte shipped through an Exchange.  Cross-shard bytes
    #: are the scarce resource once work is spread over processes — the
    #: Swapped Dragonfly lesson — so a shipped row costs several times the
    #: local per-row handling and plans are pushed to minimize shuffles.
    EXCHANGE_BYTE_COST = 0.05
    #: Fraction of a shard's rows expected to cross a boundary per tick
    #: when an Exchange runs in handoff-detection mode (exclude_shard set).
    HANDOFF_FRACTION = 0.05

    def __init__(self, catalog: Catalog, *, probe_indexes: bool = True):
        self.catalog = catalog
        #: Whether band joins can probe indexes (only kernels do): on the
        #: row path, costing must not assume an index-probe lowering that
        #: execution will never use.
        self.probe_indexes = probe_indexes

    # -- cardinality ------------------------------------------------------------------

    def table_statistics(self, plan: LogicalPlan) -> TableStatistics | None:
        """Statistics of the single base table below *plan*, if unique."""
        tables = plan.referenced_tables()
        if len(tables) != 1:
            return None
        (name,) = tables
        if not self.catalog.has_table(name):
            return None
        return self.catalog.statistics(name)

    def cardinality(self, plan: LogicalPlan) -> float:
        if isinstance(plan, TableScan):
            if self.catalog.has_table(plan.table_name):
                return float(len(self.catalog.table(plan.table_name)))
            return 1000.0
        if isinstance(plan, Values):
            return float(len(plan.rows))
        if isinstance(plan, Select):
            child = self.cardinality(plan.child)
            stats = self.table_statistics(plan.child)
            return child * estimate_selectivity(plan.predicate, stats)
        if isinstance(plan, Project):
            return self.cardinality(plan.child)
        if isinstance(plan, Join):
            return self._join_cardinality(plan)
        if isinstance(plan, Aggregate):
            return self._aggregate_cardinality(plan)
        if isinstance(plan, Union):
            return self.cardinality(plan.left) + self.cardinality(plan.right)
        if isinstance(plan, Fixpoint):
            return max(1.0, self.cardinality(plan.base) * self.FIXPOINT_GROWTH)
        if isinstance(plan, RecursiveRef):
            return self.REC_REF_CARD
        if isinstance(plan, ShardedScan):
            # Expanding reuses the histogram-based range selectivity.
            return self.cardinality(plan.to_select())
        if isinstance(plan, Exchange):
            child = self.cardinality(plan.child)
            if plan.exclude_shard is not None:
                return max(1.0, child * self.HANDOFF_FRACTION)
            return child
        children = plan.children()
        if children:
            return self.cardinality(children[0])
        return 1.0

    def _join_cardinality(self, plan: Join) -> float:
        left = self.cardinality(plan.left)
        right = self.cardinality(plan.right)
        if plan.condition is None:
            return left * right
        selectivity = self.join_condition_selectivity(plan.condition, plan.left, plan.right)
        cardinality = left * right * selectivity
        if plan.how == "left":
            cardinality = max(cardinality, left)
        return max(1.0, cardinality)

    def join_condition_selectivity(
        self, condition: Expression, left: LogicalPlan, right: LogicalPlan
    ) -> float:
        """Selectivity of a join condition, conjunct by conjunct."""
        left_stats = self.table_statistics(left)
        right_stats = self.table_statistics(right)
        conjuncts = condition.conjuncts() if isinstance(condition, BinaryOp) else [condition]
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self._conjunct_selectivity(conjunct, left_stats, right_stats)
        return selectivity

    def _conjunct_selectivity(
        self,
        conjunct: Expression,
        left_stats: TableStatistics | None,
        right_stats: TableStatistics | None,
    ) -> float:
        if isinstance(conjunct, BinaryOp) and conjunct.op == "==":
            lcol = conjunct.left.name if isinstance(conjunct.left, ColumnRef) else None
            rcol = conjunct.right.name if isinstance(conjunct.right, ColumnRef) else None
            if lcol and rcol:
                return join_selectivity(left_stats, right_stats, lcol, rcol)
            return DEFAULT_EQUALITY_SELECTIVITY
        if isinstance(conjunct, BinaryOp) and conjunct.op in ("<", "<=", ">", ">="):
            # Range conjuncts (one side of a band predicate): assume a
            # moderately selective band; two of them give ~0.09.
            return 0.3
        return DEFAULT_SELECTIVITY

    def _aggregate_cardinality(self, plan: Aggregate) -> float:
        child = self.cardinality(plan.child)
        if not plan.group_by:
            return 1.0
        stats = self.table_statistics(plan.child)
        groups = 1.0
        if stats is not None:
            for column in plan.group_by:
                cs = stats.column(column)
                if cs is not None and cs.distinct_count:
                    groups *= cs.distinct_count
                else:
                    groups *= max(1.0, child ** 0.5)
        else:
            groups = max(1.0, child ** 0.8)
        return max(1.0, min(child, groups))

    # -- cost --------------------------------------------------------------------------

    def cost(self, plan: LogicalPlan) -> PlanCost:
        """Estimate the cumulative cost (C_out + operator constants)."""
        if isinstance(plan, (TableScan, Values)):
            card = self.cardinality(plan)
            return PlanCost(card, card * self.ROW_COST)
        if isinstance(plan, Select):
            child = self.cost(plan.child)
            card = self.cardinality(plan)
            return PlanCost(card, child.cost + child.cardinality * self.EXPR_COST + card)
        if isinstance(plan, Project):
            child = self.cost(plan.child)
            n_exprs = max(1, len(plan.projections))
            return PlanCost(
                child.cardinality,
                child.cost + child.cardinality * self.EXPR_COST * n_exprs,
            )
        if isinstance(plan, Join):
            return self._join_cost(plan)
        if isinstance(plan, Aggregate):
            child = self.cost(plan.child)
            card = self.cardinality(plan)
            return PlanCost(card, child.cost + child.cardinality * self.HASH_COST + card)
        if isinstance(plan, Union):
            left = self.cost(plan.left)
            right = self.cost(plan.right)
            return PlanCost(left.cardinality + right.cardinality, left.cost + right.cost)
        if isinstance(plan, Fixpoint):
            base = self.cost(plan.base)
            step = self.cost(plan.step)
            card = self.cardinality(plan)
            work = base.cost + step.cost * self.FIXPOINT_ROUNDS + card * self.HASH_COST
            return PlanCost(card, work)
        if isinstance(plan, RecursiveRef):
            card = self.cardinality(plan)
            return PlanCost(card, card * self.ROW_COST)
        if isinstance(plan, ShardedScan):
            return self.cost(plan.to_select())
        if isinstance(plan, Exchange):
            child = self.cost(plan.child)
            card = self.cardinality(plan)
            wire = card * self.EXCHANGE_ROW_BYTES * self.EXCHANGE_BYTE_COST
            return PlanCost(card, child.cost + child.cardinality * self.EXPR_COST + wire + card)
        children = [self.cost(c) for c in plan.children()]
        total = sum(c.cost for c in children)
        card = self.cardinality(plan)
        return PlanCost(card, total + card)

    def _join_cost(self, plan: Join) -> PlanCost:
        left = self.cost(plan.left)
        right = self.cost(plan.right)
        card = self.cardinality(plan)
        if plan.condition is None:
            work = left.cardinality * right.cardinality
        else:
            conjuncts = (
                plan.condition.conjuncts()
                if isinstance(plan.condition, BinaryOp)
                else [plan.condition]
            )
            has_equi = any(
                isinstance(c, BinaryOp)
                and c.op == "=="
                and isinstance(c.left, ColumnRef)
                and isinstance(c.right, ColumnRef)
                for c in conjuncts
            )
            has_band = any(
                isinstance(c, BinaryOp) and c.op in ("<", "<=", ">", ">=") for c in conjuncts
            )
            if has_equi:
                work = left.cardinality + right.cardinality * self.HASH_COST + card
            elif has_band:
                work = (
                    self.band_join_work(
                        left.cardinality,
                        right.cardinality,
                        persistent_index=self._band_index_available(plan, conjuncts),
                    )
                    + card
                )
            else:
                work = left.cardinality * right.cardinality
        return PlanCost(card, left.cost + right.cost + work + card)

    # -- band joins -------------------------------------------------------------------

    def band_join_work(
        self, outer_cardinality: float, inner_cardinality: float, *, persistent_index: bool
    ) -> float:
        """Work of a band join: the probe loop, plus — without a persistent
        index on the inner side — rebuilding the transient grid per tick."""
        probe = outer_cardinality * self.INDEX_PROBE_COST
        if persistent_index:
            return probe
        return probe + inner_cardinality * self.GRID_BUILD_COST

    def _band_index_available(self, plan: Join, conjuncts: list[Expression]) -> bool:
        """Whether the join's inner side has a registered index covering its
        band-probe columns (makes cost estimates reflect the index-probing
        lowering the physical planner will choose)."""
        from repro.engine.optimizer.physical import _extract_range_probe, match_band_index

        if not self.probe_indexes:
            return False
        try:
            left_schema = plan.left.output_schema(self.catalog)
            right_schema = plan.right.output_schema(self.catalog)
        except Exception:
            return False
        probe = _extract_range_probe(conjuncts, left_schema, right_schema)
        if not probe:
            return False
        return match_band_index(self.catalog, plan.right, probe[0]) is not None
