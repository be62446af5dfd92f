"""The planner facade: rewrite, reorder, cost and lower a logical plan
for the target its :class:`~repro.engine.config.EngineConfig` names."""

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
    every tick) and the cost estimate the plan was chosen with.
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
    (``config=``, default ``EngineConfig()``): ``use_batch=False`` forces
    row-at-a-time plans instead of compiled kernels (whose programs are
    kept in ``kernel_cache``), and costs band joins without the indexes
    only kernels probe.  An unrewritten plan can still be lowered as
    written through ``physical_planner.lower``.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: EngineConfig | None = None,
        *,
        index_advisor=None,
        kernel_cache: dict | None = None,
    ):
        if config is None:
            config = EngineConfig()
        self.catalog = catalog
        self.config = config
        self.cost_model = CostModel(catalog, probe_indexes=config.use_batch)
        self.physical_planner = PhysicalPlanner(
            catalog, config, index_advisor=index_advisor, kernel_cache=kernel_cache
        )

    def plan(self, logical: LogicalPlan) -> PlannedQuery:
        """Produce a physical plan for *logical*."""
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
