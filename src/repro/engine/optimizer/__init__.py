"""Query optimization: rewrites, multi-query sharing, physical planning
and the index advisor."""

from repro.engine.optimizer.adaptive import IndexAdvisor
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
