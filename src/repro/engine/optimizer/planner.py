"""The planner facade: rewrite and lower a logical plan for the target
its :class:`~repro.engine.config.EngineConfig` names."""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.algebra import LogicalPlan, explain as explain_logical
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.operators import PhysicalOperator
from repro.engine.optimizer.physical import PhysicalPlanner
from repro.engine.optimizer.rules import apply_standard_rewrites

__all__ = ["Planner", "PlannedQuery"]


@dataclass
class PlannedQuery:
    """The result of planning one query.

    Bundles the original logical plan, the rewritten logical plan and
    the lowered physical operator tree (which the executor runs every
    tick).
    """

    logical: LogicalPlan
    optimized: LogicalPlan
    physical: PhysicalOperator

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
        ]
        return "\n".join(lines)


class Planner:
    """Rule-based planner over a catalog.

    Orchestrates the pipeline for one query: logical rewrites
    (:mod:`repro.engine.optimizer.rules`), then lowering to physical
    operators (:class:`~repro.engine.optimizer.physical.PhysicalPlanner`).
    There is no cost model: joins run in the order the SGL compiler (or a
    hand-built plan) wrote them.

    Configuration comes from one :class:`~repro.engine.config.EngineConfig`
    (``config=``, default ``EngineConfig()``): ``use_batch=False`` forces
    row-at-a-time plans instead of compiled kernels (whose programs are
    kept in ``kernel_cache``).  An unrewritten plan can still be lowered
    as written through ``physical_planner.lower``.
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
        self.physical_planner = PhysicalPlanner(
            catalog, config, index_advisor=index_advisor, kernel_cache=kernel_cache
        )

    def plan(self, logical: LogicalPlan) -> PlannedQuery:
        """Produce a physical plan for *logical*."""
        optimized = apply_standard_rewrites(logical, self.catalog)
        return PlannedQuery(logical, optimized, self.physical_planner.lower(optimized))

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
