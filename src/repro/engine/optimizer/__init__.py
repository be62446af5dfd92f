"""Query optimization: rewrites, join ordering, costing, physical planning
and the index advisor."""

from repro.engine.optimizer.adaptive import IndexAdvisor
from repro.engine.optimizer.cost import CostModel, PlanCost
from repro.engine.optimizer.join_order import extract_join_graph, order_joins, reorder_joins
from repro.engine.optimizer.mqo import (
    SharedScan,
    SharedSubplan,
    TickEntry,
    TickPlan,
    build_tick_plan,
    fingerprint_plan,
)
from repro.engine.optimizer.physical import PhysicalPlanner
from repro.engine.optimizer.planner import PlannedQuery, Planner
from repro.engine.optimizer.rules import (
    apply_standard_rewrites,
    merge_selections,
    push_down_selections,
    split_conjunctions,
)

__all__ = [
    "IndexAdvisor",
    "CostModel",
    "PlanCost",
    "extract_join_graph",
    "order_joins",
    "reorder_joins",
    "SharedScan",
    "SharedSubplan",
    "TickEntry",
    "TickPlan",
    "build_tick_plan",
    "fingerprint_plan",
    "PhysicalPlanner",
    "PlannedQuery",
    "Planner",
    "apply_standard_rewrites",
    "merge_selections",
    "push_down_selections",
    "split_conjunctions",
]
