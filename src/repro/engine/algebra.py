"""Logical relational algebra.

The SGL compiler translates the query and effect steps of a script into a
tree of these nodes (Section 2 of the paper).  The optimizer rewrites the
tree (conjunct splitting, predicate pushdown) and the planner lowers it
into physical operators from :mod:`repro.engine.operators`.

Nodes are immutable; rewrites build new trees.  Each node can infer its
output schema given a :class:`~repro.engine.catalog.Catalog`, which is what
lets the compiler stay entirely ignorant of the physical layout chosen by
the schema generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.engine.catalog import Catalog
from repro.engine.errors import PlanError
from repro.engine.expressions import BinaryOp, ColumnRef, Expression, Literal
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType

__all__ = [
    "LogicalPlan",
    "TableScan",
    "Values",
    "Select",
    "Project",
    "Join",
    "Aggregate",
    "AggregateSpec",
    "Union",
    "RecursiveRef",
    "Fixpoint",
    "ShardedScan",
    "Exchange",
    "explain",
]


class LogicalPlan:
    """Base class for logical plan nodes."""

    def children(self) -> tuple["LogicalPlan", ...]:
        return ()

    def with_children(self, children: Sequence["LogicalPlan"]) -> "LogicalPlan":
        """Return a copy of this node with *children* substituted."""
        if children:
            raise PlanError(f"{type(self).__name__} takes no children")
        return self

    def output_schema(self, catalog: Catalog) -> Schema:
        raise NotImplementedError

    def node_label(self) -> str:
        """One-line description used by ``explain``."""
        return type(self).__name__

    # -- traversal helpers -----------------------------------------------------------

    def walk(self) -> Iterable["LogicalPlan"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def referenced_tables(self) -> set[str]:
        """Names of all base tables scanned anywhere in the tree."""
        return {
            node.table_name
            for node in self.walk()
            if isinstance(node, (TableScan, ShardedScan))
        }


class TableScan(LogicalPlan):
    """Scan a base table from the catalog, optionally under an alias.

    With an alias, output columns are qualified ``alias.column`` so that
    self-joins (ubiquitous in SGL: "for each unit, the other units in
    range") produce unambiguous schemas.
    """

    def __init__(self, table_name: str, alias: str | None = None):
        self.table_name = table_name
        self.alias = alias

    def output_schema(self, catalog: Catalog) -> Schema:
        schema = catalog.table(self.table_name).schema
        if self.alias:
            return schema.qualify(self.alias)
        return schema

    def node_label(self) -> str:
        if self.alias and self.alias != self.table_name:
            return f"TableScan({self.table_name} AS {self.alias})"
        return f"TableScan({self.table_name})"

    def __repr__(self) -> str:
        return self.node_label()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TableScan)
            and other.table_name == self.table_name
            and other.alias == self.alias
        )

    def __hash__(self) -> int:
        return hash(("scan", self.table_name, self.alias))


class Values(LogicalPlan):
    """An inline relation with a fixed list of rows (used in tests and by
    the transaction engine to evaluate candidate write sets)."""

    def __init__(self, schema: Schema, rows: Sequence[Mapping[str, Any]]):
        self.schema = schema
        self.rows = tuple(dict(r) for r in rows)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.schema

    def node_label(self) -> str:
        return f"Values({len(self.rows)} rows)"


class Select(LogicalPlan):
    """Filter rows by a boolean predicate expression."""

    def __init__(self, child: LogicalPlan, predicate: Expression):
        self.child = child
        self.predicate = predicate

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Select":
        (child,) = children
        return Select(child, self.predicate)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.child.output_schema(catalog)

    def node_label(self) -> str:
        return f"Select({self.predicate!r})"


class Project(LogicalPlan):
    """Compute output columns from expressions over the input row.

    ``projections`` maps output column name → expression.  Types are
    inferred from the expressions; pass ``types`` to override.
    """

    def __init__(
        self,
        child: LogicalPlan,
        projections: Mapping[str, Expression] | Sequence[tuple[str, Expression]],
        types: Mapping[str, DataType] | None = None,
    ):
        self.child = child
        if isinstance(projections, Mapping):
            items = list(projections.items())
        else:
            items = list(projections)
        self.projections: tuple[tuple[str, Expression], ...] = tuple(items)
        self.types = dict(types or {})

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Project":
        (child,) = children
        return Project(child, self.projections, self.types)

    def output_schema(self, catalog: Catalog) -> Schema:
        cols = []
        for name, expr in self.projections:
            dtype = self.types.get(name, expr.result_type())
            cols.append(Column(name, dtype))
        return Schema(cols)

    def node_label(self) -> str:
        names = ", ".join(name for name, _ in self.projections)
        return f"Project({names})"

    @staticmethod
    def identity(child: LogicalPlan, names: Sequence[str]) -> "Project":
        """Project that simply keeps the named columns."""
        return Project(child, [(n, ColumnRef(n)) for n in names])


class Join(LogicalPlan):
    """Join two inputs on a boolean condition.

    ``how`` is ``"inner"``, ``"left"`` (left outer) or ``"cross"``; a cross
    join has no condition, and an inner or left join without one is a
    cross product too.  The condition may be any expression over the
    concatenated schemas; the physical planner recognises equi-join and
    band-join (spatial range) shapes and picks hash or index joins
    accordingly.
    """

    def __init__(
        self,
        left: LogicalPlan,
        right: LogicalPlan,
        condition: Expression | None = None,
        how: str = "inner",
    ):
        if how not in ("inner", "left", "cross"):
            raise PlanError(f"unsupported join type {how!r}")
        if how == "cross" and condition is not None:
            raise PlanError("a cross join takes no condition; use an inner join")
        self.left = left
        self.right = right
        self.condition = condition
        self.how = how

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Join":
        left, right = children
        return Join(left, right, self.condition, self.how)

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.left.output_schema(catalog).concat(self.right.output_schema(catalog))

    def node_label(self) -> str:
        cond = "" if self.condition is None else f", on={self.condition!r}"
        return f"Join({self.how}{cond})"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate output: ``name = func(argument)``.

    ``func`` is any combinator known to :mod:`repro.runtime.effects`
    (``sum``, ``avg``, ``min``, ``max``, ``count``, ``any``, ``all``,
    ``union``, ``choose`` …).  ``argument`` may be ``None`` for ``count``.
    """

    name: str
    func: str
    argument: Expression | None = None

    def label(self) -> str:
        arg = "*" if self.argument is None else repr(self.argument)
        return f"{self.name}={self.func}({arg})"


class Aggregate(LogicalPlan):
    """Group rows by ``group_by`` columns and compute aggregates.

    This is the node the SGL compiler produces for effect combination and
    for accum-loops (Figure 2): grouping by the acting object's key and
    combining all assigned values with the declared combinator.
    """

    def __init__(
        self,
        child: LogicalPlan,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
    ):
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.group_by, self.aggregates)

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        cols = [child_schema.column(g) for g in self.group_by]
        for spec in self.aggregates:
            dtype = DataType.NUMBER
            if spec.func in ("any", "all"):
                dtype = DataType.BOOL
            elif spec.func in ("union", "collect"):
                dtype = DataType.SET
            elif spec.func == "choose":
                dtype = DataType.ANY
            cols.append(Column(spec.name, dtype))
        return Schema(cols)

    def node_label(self) -> str:
        aggs = ", ".join(spec.label() for spec in self.aggregates)
        return f"Aggregate(by=[{', '.join(self.group_by)}], {aggs})"


class Union(LogicalPlan):
    """Bag union of two inputs with identical column names."""

    def __init__(self, left: LogicalPlan, right: LogicalPlan):
        self.left = left
        self.right = right

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.left, self.right)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Union":
        left, right = children
        return Union(left, right)

    def output_schema(self, catalog: Catalog) -> Schema:
        left_schema = self.left.output_schema(catalog)
        right_schema = self.right.output_schema(catalog)
        if left_schema.names != right_schema.names:
            raise PlanError(
                f"union inputs differ: {left_schema.names} vs {right_schema.names}"
            )
        return left_schema


class RecursiveRef(LogicalPlan):
    """A reference to the accumulating relation of an enclosing :class:`Fixpoint`.

    The node is a leaf with an *explicit* schema (recursion has no base
    table the catalog could answer for), so rewrite rules and schema
    inference work inside the step plan without special cases.  Under
    semi-naive evaluation the reference is bound to the previous round's
    delta; under naive evaluation to the full accumulated relation.

    ``name`` distinguishes binding slots when the physical planner installs
    several (the accumulator plus per-table delta variants for incremental
    re-closure); plans written by hand or by the SGL compiler use the
    default accumulator slot.
    """

    ACCUMULATOR = "__rec__"

    def __init__(self, schema: Schema, name: str = ACCUMULATOR):
        self.schema = schema
        self.name = name

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.schema

    def node_label(self) -> str:
        return f"RecursiveRef({self.name}: {', '.join(self.schema.names)})"


class Fixpoint(LogicalPlan):
    """Least-fixpoint iteration: the closure of ``base`` under ``step``.

    ``step`` must reference the accumulating relation through at least one
    :class:`RecursiveRef` whose column names match ``base``'s output.  The
    result is the set (duplicates removed) of all rows derivable from the
    base rows by repeatedly applying the step, capped at ``max_rounds``
    rounds (``None`` = iterate to convergence).
    """

    def __init__(
        self,
        base: LogicalPlan,
        step: LogicalPlan,
        max_rounds: int | None = None,
    ):
        if max_rounds is not None and max_rounds < 0:
            raise PlanError("fixpoint iteration cap must be non-negative")
        refs = [node for node in step.walk() if isinstance(node, RecursiveRef)]
        if not any(ref.name == RecursiveRef.ACCUMULATOR for ref in refs):
            raise PlanError(
                "fixpoint step must reference the accumulating relation "
                "through a RecursiveRef"
            )
        self.base = base
        self.step = step
        self.max_rounds = max_rounds

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.base, self.step)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Fixpoint":
        base, step = children
        return Fixpoint(base, step, self.max_rounds)

    def output_schema(self, catalog: Catalog) -> Schema:
        base_schema = self.base.output_schema(catalog)
        step_schema = self.step.output_schema(catalog)
        if base_schema.names != step_schema.names:
            raise PlanError(
                f"fixpoint base and step schemas differ: "
                f"{base_schema.names} vs {step_schema.names}"
            )
        return base_schema

    def node_label(self) -> str:
        cap = "∞" if self.max_rounds is None else str(self.max_rounds)
        return f"Fixpoint(max_rounds={cap})"


class ShardedScan(LogicalPlan):
    """Scan one shard's slice of a spatially partitioned table.

    A shard owns the half-open range ``low <= axis_column < high`` of the
    partition axis; ``None`` on either side marks an unbounded edge shard.
    The node is sugar: :meth:`to_select` expands it into an ordinary
    ``Select`` over a ``TableScan`` so that every downstream machine —
    index matching, batch lowering, kernel compilation — applies to the
    shard slice unchanged.  The optimizer performs this expansion up
    front; the planner also accepts an unexpanded node.
    """

    def __init__(
        self,
        table_name: str,
        axis_column: str,
        low: float | None,
        high: float | None,
        alias: str | None = None,
    ):
        self.table_name = table_name
        self.axis_column = axis_column
        self.low = low
        self.high = high
        self.alias = alias

    def output_schema(self, catalog: Catalog) -> Schema:
        schema = catalog.table(self.table_name).schema
        if self.alias:
            return schema.qualify(self.alias)
        return schema

    def to_select(self) -> LogicalPlan:
        """Expand into ``Select(TableScan, range predicate)``."""
        scan = TableScan(self.table_name, self.alias)
        axis = f"{self.alias}.{self.axis_column}" if self.alias else self.axis_column
        parts: list[Expression] = []
        if self.low is not None:
            parts.append(BinaryOp(">=", ColumnRef(axis), Literal(self.low)))
        if self.high is not None:
            parts.append(BinaryOp("<", ColumnRef(axis), Literal(self.high)))
        if not parts:
            return scan
        predicate = parts[0]
        for part in parts[1:]:
            predicate = BinaryOp("&&", predicate, part)
        return Select(scan, predicate)

    def node_label(self) -> str:
        low = "-inf" if self.low is None else f"{self.low:g}"
        high = "+inf" if self.high is None else f"{self.high:g}"
        target = self.table_name if not self.alias else f"{self.table_name} AS {self.alias}"
        return f"ShardedScan({target}, {self.axis_column} in [{low}, {high}))"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardedScan)
            and other.table_name == self.table_name
            and other.axis_column == self.axis_column
            and other.low == self.low
            and other.high == self.high
            and other.alias == self.alias
        )

    def __hash__(self) -> int:
        return hash(
            ("sharded_scan", self.table_name, self.axis_column, self.low, self.high, self.alias)
        )


class Exchange(LogicalPlan):
    """Route rows to destination shards by their position on the partition axis.

    ``cuts`` holds the interior shard boundaries in ascending order (so
    ``len(cuts) + 1`` shards); a row's destination is the index of the
    first cut greater than its axis value.  The output schema gains a
    ``shard_column`` carrying the destination shard id.

    ``exclude_shard`` drops rows destined for that shard, which turns the
    operator into a handoff detector: an exchange over shard *i*'s primary
    table with ``exclude_shard=i`` emits exactly the rows whose updated
    position has left the shard's range, already labelled with their new
    owner.
    """

    SHARD_COLUMN = "__shard__"

    def __init__(
        self,
        child: LogicalPlan,
        axis_column: str,
        cuts: Sequence[float],
        shard_column: str = SHARD_COLUMN,
        exclude_shard: int | None = None,
    ):
        if list(cuts) != sorted(cuts):
            raise PlanError("exchange cuts must be ascending")
        self.child = child
        self.axis_column = axis_column
        self.cuts = tuple(cuts)
        self.shard_column = shard_column
        self.exclude_shard = exclude_shard

    def children(self) -> tuple[LogicalPlan, ...]:
        return (self.child,)

    def with_children(self, children: Sequence[LogicalPlan]) -> "Exchange":
        (child,) = children
        return Exchange(child, self.axis_column, self.cuts, self.shard_column, self.exclude_shard)

    def output_schema(self, catalog: Catalog) -> Schema:
        child_schema = self.child.output_schema(catalog)
        if self.shard_column in child_schema.names:
            raise PlanError(f"exchange shard column {self.shard_column!r} collides with input")
        return Schema(list(child_schema) + [Column(self.shard_column, DataType.NUMBER)])

    def node_label(self) -> str:
        skip = "" if self.exclude_shard is None else f", exclude={self.exclude_shard}"
        return f"Exchange({self.axis_column}, {len(self.cuts) + 1} shards{skip})"


def explain(plan: LogicalPlan, indent: int = 0) -> str:
    """Render a logical plan as an indented tree (used by the debugger)."""
    lines = [("  " * indent) + plan.node_label()]
    for child in plan.children():
        lines.append(explain(child, indent + 1))
    return "\n".join(lines)
