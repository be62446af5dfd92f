"""The planner facade: rewrite, reorder, cost and lower a logical plan."""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.algebra import LogicalPlan, explain as explain_logical
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.operators import PhysicalOperator
from repro.engine.optimizer.cost import CostModel, PlanCost
from repro.engine.optimizer.join_order import reorder_joins
from repro.engine.optimizer.physical import PhysicalPlanner
from repro.engine.optimizer.rules import apply_standard_rewrites

__all__ = ["Planner", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """The result of planning one query.

    Bundles the original logical plan, the rewritten/reordered logical
    plan, the lowered physical operator tree (which the executor runs
    every tick) and the cost estimate the plan was chosen with — the
    adaptive optimizer compares that estimate against observed runtime
    cardinalities to decide when to re-plan.
    """

    logical: LogicalPlan
    optimized: LogicalPlan
    physical: PhysicalOperator
    estimated: PlanCost

    @property
    def uses_batch(self) -> bool:
        """Whether any part of the physical plan runs on the batch path."""
        from repro.engine.operators import BatchBridgeOp

        return any(isinstance(op, BatchBridgeOp) for op in self.physical.walk())

    def explain(self, *, analyze: bool = False) -> str:
        lines = [
            "== logical ==",
            explain_logical(self.logical),
            "== optimized ==",
            explain_logical(self.optimized),
            "== physical ==",
            self.physical.explain(analyze=analyze),
            f"== estimated cost: {self.estimated.cost:.1f} rows: {self.estimated.cardinality:.1f} ==",
        ]
        return "\n".join(lines)


class Planner:
    """Cost-based planner over a catalog.

    Orchestrates the full pipeline for one query: logical rewrites
    (:mod:`repro.engine.optimizer.rules`), cost-based join reordering
    (:mod:`repro.engine.optimizer.join_order`), then lowering to physical
    operators (:class:`~repro.engine.optimizer.physical.PhysicalPlanner`).

    Configuration comes from one :class:`~repro.engine.config.EngineConfig`
    (``config=``, default :meth:`~repro.engine.config.EngineConfig.from_env`):
    ``optimize=False`` skips rewrites and join reordering (the optimizer
    tests compare results against it); ``use_indexes=False``
    forces pure scan plans; ``use_batch=False`` forces row-at-a-time plans
    instead of the columnar batch path.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig | None = None,
        *,
        index_advisor=None,
    ):
        if config is None:
            config = EngineConfig.from_env()
        self.catalog = catalog
        self.config = config
        self.optimize = config.optimize
        self.cost_model = CostModel(catalog, use_indexes=config.use_indexes)
        self.physical_planner = PhysicalPlanner(catalog, config, index_advisor=index_advisor)

    def plan(self, logical: LogicalPlan) -> PlannedQuery:
        """Produce a physical plan for *logical*."""
        optimized = logical
        if self.optimize:
            optimized = apply_standard_rewrites(logical, self.catalog)
            optimized = reorder_joins(optimized, self.catalog, self.cost_model)
        physical = self.physical_planner.lower(optimized)
        estimated = self.cost_model.cost(optimized)
        return PlannedQuery(logical, optimized, physical, estimated)

    def build_incremental(self, optimized: LogicalPlan):
        """Lower *optimized* to a delta-maintained view, or ``None``.

        Returns an :class:`~repro.engine.operators.incremental.IncrementalView`
        when every node of the plan is provably delta-correct (see
        :mod:`repro.engine.optimizer.incremental` for the fallback rules).
        """
        from repro.engine.optimizer.incremental import IncrementalPlanner

        return IncrementalPlanner(self.catalog, self.physical_planner).build_view(
            optimized
        )

    def estimate(self, logical: LogicalPlan) -> PlanCost:
        """Cost a logical plan without lowering it (used by adaptive search)."""
        return self.cost_model.cost(logical)
