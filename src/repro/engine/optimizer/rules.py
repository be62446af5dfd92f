"""Logical rewrite rules.

The compiler emits a straightforward plan (scans → cross joins → one big
selection → projection/aggregation); these rules normalize it, in the
order :func:`apply_standard_rewrites` runs them:

* ``expand_sharded_scans`` — a ``ShardedScan`` becomes a range Select
  over its table.
* ``split_conjunctions`` — one Select per conjunct.
* ``push_down_selections`` — move each selection as close to the scans as
  its referenced columns allow; selections referencing both sides of a join
  become join conditions.
* ``merge_selections`` — collapse adjacent selections back into one
  conjunction (after pushdown).

No rule reorders joins: the plan keeps the join order the compiler wrote.
All rules are pure functions from plan to plan.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.algebra import (
    Aggregate,
    Join,
    LogicalPlan,
    Project,
    Select,
    ShardedScan,
)
from repro.engine.catalog import Catalog
from repro.engine.errors import EngineError
from repro.engine.expressions import BinaryOp, Expression, and_all

__all__ = [
    "expand_sharded_scans",
    "split_conjunctions",
    "push_down_selections",
    "merge_selections",
    "apply_standard_rewrites",
]


def _rewrite_children(plan: LogicalPlan, fn: Callable[[LogicalPlan], LogicalPlan]) -> LogicalPlan:
    children = plan.children()
    if not children:
        return plan
    new_children = [fn(c) for c in children]
    if all(new is old for new, old in zip(new_children, children)):
        return plan
    return plan.with_children(new_children)


def expand_sharded_scans(plan: LogicalPlan) -> LogicalPlan:
    """Expand ``ShardedScan`` into ``Select(TableScan, range predicate)``.

    Run first so every later rule — conjunct splitting, pushdown, index
    matching during lowering — sees the shard slice as an ordinary
    selection over the base table.
    """
    plan = _rewrite_children(plan, expand_sharded_scans)
    if isinstance(plan, ShardedScan):
        return plan.to_select()
    return plan


def split_conjunctions(plan: LogicalPlan) -> LogicalPlan:
    """Turn ``Select(p1 && p2)`` into ``Select(p1)(Select(p2))``."""
    plan = _rewrite_children(plan, split_conjunctions)
    if isinstance(plan, Select) and isinstance(plan.predicate, BinaryOp):
        conjuncts = plan.predicate.conjuncts()
        if len(conjuncts) > 1:
            node: LogicalPlan = plan.child
            for predicate in conjuncts:
                node = Select(node, predicate)
            return node
    return plan


def merge_selections(plan: LogicalPlan) -> LogicalPlan:
    """Collapse chains of Select nodes into a single conjunction."""
    plan = _rewrite_children(plan, merge_selections)
    if isinstance(plan, Select) and isinstance(plan.child, Select):
        predicates = [plan.predicate]
        child = plan.child
        while isinstance(child, Select):
            predicates.append(child.predicate)
            child = child.child
        return Select(child, and_all(reversed(predicates)))
    return plan


def _columns_available(plan: LogicalPlan, catalog: Catalog) -> set[str]:
    try:
        schema = plan.output_schema(catalog)
    except EngineError:
        return set()
    names = set(schema.names)
    names |= {c.unqualified_name for c in schema}
    return names


def _covers(predicate: Expression, plan: LogicalPlan, catalog: Catalog) -> bool:
    """Whether every column referenced by *predicate* is produced by *plan*.

    Qualified names (``"b.id"``) must match exactly — matching only on the
    unqualified suffix would let a predicate over the *other* join side be
    pushed to the wrong input.
    """
    available = _columns_available(plan, catalog)
    if not available:
        return False
    for column in predicate.columns():
        if column in available:
            continue
        if "." not in column and column.split(".")[-1] in available:
            continue
        return False
    return True


def push_down_selections(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    """Push Select nodes toward the leaves; absorb join-spanning ones as
    join conditions."""

    def rewrite(node: LogicalPlan) -> LogicalPlan:
        node = _rewrite_children(node, rewrite)
        if not isinstance(node, Select):
            return node
        child = node.child
        predicate = node.predicate
        if isinstance(child, Select):
            # Try to push this predicate below the inner selection.  If it
            # does not move, keep the original nesting (avoids ping-ponging
            # two unpushable selections forever).
            pushed = rewrite(Select(child.child, predicate))
            if (
                isinstance(pushed, Select)
                and pushed.predicate is predicate
                and pushed.child is child.child
            ):
                return node
            return Select(pushed, child.predicate)
        if isinstance(child, Join):
            left, right = child.left, child.right
            if _covers(predicate, left, catalog):
                return rewrite(Join(Select(left, predicate), right, child.condition, child.how))
            if _covers(predicate, right, catalog) and child.how != "left":
                return rewrite(Join(left, Select(right, predicate), child.condition, child.how))
            # References both sides: make it (part of) the join condition.
            if child.how in ("inner", "cross"):
                condition = (
                    predicate
                    if child.condition is None
                    else BinaryOp("&&", child.condition, predicate)
                )
                return Join(left, right, condition, "inner")
            return node
        if isinstance(child, Project):
            # Push through a projection when the predicate only uses columns
            # that are pass-through references.
            passthrough = {
                name: expr
                for name, expr in child.projections
                if hasattr(expr, "name")
            }
            referenced = predicate.columns()
            if all(c in passthrough for c in referenced):
                substitution = {c: passthrough[c] for c in referenced}
                pushed = predicate.substitute(substitution)
                return Project(rewrite(Select(child.child, pushed)), child.projections, child.types)
            return node
        if isinstance(child, Aggregate):
            # Only push predicates that reference group-by columns alone.
            if all(c in child.group_by or c.split(".")[-1] in child.group_by for c in predicate.columns()):
                return Aggregate(
                    rewrite(Select(child.child, predicate)), child.group_by, child.aggregates
                )
            return node
        return node

    return rewrite(plan)


def apply_standard_rewrites(plan: LogicalPlan, catalog: Catalog) -> LogicalPlan:
    """The default rewrite pipeline used by the planner."""
    plan = expand_sharded_scans(plan)
    plan = split_conjunctions(plan)
    plan = push_down_selections(plan, catalog)
    return merge_selections(plan)
