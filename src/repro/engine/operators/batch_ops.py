"""Batch (columnar) physical operators.

These mirror the hot row-at-a-time operators — scan, filter, project, hash
and nested-loop join, aggregate — but produce whole
:class:`~repro.engine.batch.ColumnBatch` relations instead of yielding a
dict per row.  The physical planner
(:mod:`repro.engine.optimizer.physical`) lowers an operator subtree to
batch form only when every node is batch-capable and every expression is
provably compilable (:func:`repro.engine.expressions.batch_supported`), so
the row path remains the general fallback and both paths always produce
identical results (``tests/test_batch_columnar.py`` asserts this across
the workloads).

Output-ordering contract: every batch operator produces rows in exactly the
order its row-at-a-time twin would, so downstream order-sensitive
consumers (``first``/``last``/``collect`` aggregates, ``Limit``) cannot
tell the paths apart.

:class:`BatchBridgeOp` is the boundary: a regular
:class:`~repro.engine.operators.base.PhysicalOperator` that executes the
batch subtree and materializes row dicts once, at the top, so everything
above it (executor, plan cache, explain) is unchanged.
"""

from __future__ import annotations

import operator as _operator
import time
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.engine.aggregates import combine_values
from repro.engine.algebra import AggregateSpec
from repro.engine.batch import ColumnBatch, IndirectColumn
from repro.engine.errors import ExpressionError
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    Literal,
    compile_batch,
    resolve_batch_column,
)
from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema
from repro.engine.table import Table

__all__ = [
    "BatchOperator",
    "BatchTableScanOp",
    "BatchValuesOp",
    "BatchFilterOp",
    "BatchProjectOp",
    "BatchHashJoinOp",
    "BatchNestedLoopJoinOp",
    "BatchAggregateOp",
    "BatchBridgeOp",
]


class BatchOperator:
    """Base class for batch operators.

    ``names`` is the tuple of output column names — computed at plan time
    and identical to the keys of the row dicts the row-at-a-time twin
    would produce, which is what lets the planner resolve expressions
    statically before committing to the batch path.
    """

    def __init__(self, schema: Schema, names: Sequence[str], children: tuple["BatchOperator", ...] = ()):
        self.schema = schema
        self.names = tuple(names)
        self.children = children

    def execute(self) -> ColumnBatch:
        """Produce the full output relation as one batch."""
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        parts = [("  " * indent) + self.label()]
        for child in self.children:
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)


class BatchTableScanOp(BatchOperator):
    """Expose a base table as a batch (shared, version-cached column lists)."""

    def __init__(self, table: Table, schema: Schema, alias: str | None = None):
        if alias:
            names = [f"{alias}.{n.split('.')[-1]}" for n in table.schema.names]
        else:
            names = list(table.schema.names)
        super().__init__(schema, names)
        self.table = table
        self.alias = alias

    def execute(self) -> ColumnBatch:
        batch = self.table.to_batch()
        if self.alias:
            return batch.qualify(self.alias)
        return batch

    def label(self) -> str:
        if self.alias and self.alias != self.table.name:
            return f"BatchTableScan({self.table.name} AS {self.alias})"
        return f"BatchTableScan({self.table.name})"


class BatchValuesOp(BatchOperator):
    """A fixed, in-plan list of rows in columnar form."""

    def __init__(self, schema: Schema, rows: Sequence[Mapping[str, Any]]):
        super().__init__(schema, schema.names)
        self._batch = ColumnBatch.from_rows(schema.names, rows)

    def execute(self) -> ColumnBatch:
        return self._batch

    def label(self) -> str:
        return f"BatchValues({len(self._batch)} rows)"


#: Mirror of the null-safe comparison semantics in ``expressions._BINARY_OPS``
#: for the specialized filter passes: equality is plain Python equality,
#: ordered comparisons drop rows with a ``None`` operand.
_ORDERED = {"<": _operator.lt, "<=": _operator.le, ">": _operator.gt, ">=": _operator.ge}
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}


def _fast_comparison_pass(
    conjunct: Expression, columns: Mapping[str, Sequence[Any]]
) -> Callable[[Sequence[int]], list[int]] | None:
    """Specialize ``col <op> literal`` / ``col <op> col`` conjuncts.

    Returns a selection-vector pass — one tight list comprehension with the
    comparison inlined — or ``None`` when the conjunct doesn't match, in
    which case the caller falls back to the generic compiled form.  This is
    where most of the batch filter's speedup over row-at-a-time evaluation
    comes from on the tick-loop predicates.
    """
    if not isinstance(conjunct, BinaryOp) or conjunct.op not in _FLIPPED:
        return None

    def column_of(expr: Expression) -> Sequence[Any] | None:
        if isinstance(expr, ColumnRef):
            resolved = resolve_batch_column(expr.name, tuple(columns))
            if resolved is not None:
                return columns[resolved]
        return None

    left_col = column_of(conjunct.left)
    right_col = column_of(conjunct.right)
    op = conjunct.op
    if left_col is not None and right_col is not None:
        if op == "==":
            return lambda sel, a=left_col, b=right_col: [i for i in sel if a[i] == b[i]]
        if op == "!=":
            return lambda sel, a=left_col, b=right_col: [i for i in sel if a[i] != b[i]]
        fn = _ORDERED[op]
        return lambda sel, a=left_col, b=right_col, fn=fn: [
            i
            for i in sel
            if (x := a[i]) is not None and (y := b[i]) is not None and fn(x, y)
        ]
    if left_col is not None and isinstance(conjunct.right, Literal):
        column, value = left_col, conjunct.right.value
    elif right_col is not None and isinstance(conjunct.left, Literal):
        column, value, op = right_col, conjunct.left.value, _FLIPPED[op]
    else:
        return None
    if op == "==":
        return lambda sel, c=column, v=value: [i for i in sel if c[i] == v]
    if op == "!=":
        return lambda sel, c=column, v=value: [i for i in sel if c[i] != v]
    if value is None:
        # Null-safe ordered comparison against NULL is never true.
        return lambda sel: []
    if op == ">":
        return lambda sel, c=column, v=value: [i for i in sel if (x := c[i]) is not None and x > v]
    if op == ">=":
        return lambda sel, c=column, v=value: [i for i in sel if (x := c[i]) is not None and x >= v]
    if op == "<":
        return lambda sel, c=column, v=value: [i for i in sel if (x := c[i]) is not None and x < v]
    return lambda sel, c=column, v=value: [i for i in sel if (x := c[i]) is not None and x <= v]


class BatchFilterOp(BatchOperator):
    """Shrink the selection vector to the indices satisfying the predicate.

    The predicate's AND-conjuncts are applied as successive passes over the
    selection vector — equivalent to the row path's short-circuit
    evaluation because later conjuncts only ever see rows that survived
    earlier ones.  Comparison conjuncts get specialized passes
    (:func:`_fast_comparison_pass`); anything else runs the generic
    compiled evaluator.
    """

    def __init__(self, child: BatchOperator, predicate: Expression):
        super().__init__(child.schema, child.names, (child,))
        self.predicate = predicate

    def execute(self) -> ColumnBatch:
        batch = self.children[0].execute()
        conjuncts = (
            self.predicate.conjuncts()
            if isinstance(self.predicate, BinaryOp)
            else [self.predicate]
        )
        selection: Sequence[int] = batch.indices()
        for conjunct in conjuncts:
            fast = _fast_comparison_pass(conjunct, batch.columns)
            if fast is not None:
                try:
                    selection = fast(selection)
                except TypeError as exc:
                    raise ExpressionError(f"cannot evaluate {conjunct!r} over batch") from exc
            else:
                keep = compile_batch(conjunct, batch.columns)
                selection = [i for i in selection if keep(i)]
        if not isinstance(selection, list):
            selection = list(selection)
        return batch.with_selection(selection)

    def label(self) -> str:
        return f"BatchFilter({self.predicate!r})"


class BatchProjectOp(BatchOperator):
    """Compute each output column as one list over the selection vector."""

    def __init__(
        self,
        child: BatchOperator,
        projections: Sequence[tuple[str, Expression]],
        schema: Schema,
    ):
        super().__init__(schema, [name for name, _ in projections], (child,))
        self.projections = list(projections)

    def execute(self) -> ColumnBatch:
        batch = self.children[0].execute()
        indices = batch.indices()
        columns: dict[str, list] = {}
        for name, expr in self.projections:
            fn = compile_batch(expr, batch.columns)
            columns[name] = [fn(i) for i in indices]
        return ColumnBatch(self.names, columns)

    def label(self) -> str:
        return f"BatchProject({', '.join(name for name, _ in self.projections)})"


def _gather_join_output(
    left: ColumnBatch,
    right: ColumnBatch,
    out_left: Sequence[int],
    out_right: Sequence[int | None],
    names: Sequence[str],
) -> ColumnBatch:
    """Materialize join output columns from (left index, right index) pairs.

    ``out_right`` entries of ``None`` are left-outer padding: every right
    column gets ``None`` for that output row, matching the row path's
    null-extended dicts.
    """
    columns: dict[str, list] = {}
    for name in left.names:
        col = left.columns[name]
        columns[name] = [col[i] for i in out_left]
    for name in right.names:
        col = right.columns[name]
        columns[name] = [None if j is None else col[j] for j in out_right]
    return ColumnBatch(names, columns)


class _PairFilter:
    """Evaluate a join predicate over candidate (left, right) index pairs.

    The predicate is compiled once against :class:`IndirectColumn` views of
    both inputs; the pair index lists are owned by the caller and can be
    refilled between :meth:`keep` calls (the nested-loop join reuses them
    per outer row to keep memory at O(|right|)).
    """

    def __init__(
        self,
        left: ColumnBatch,
        right: ColumnBatch,
        pair_left: list[int],
        pair_right: list[int],
        predicate: Expression,
    ):
        combined: dict[str, Any] = {}
        for name in left.names:
            combined[name] = IndirectColumn(left.columns[name], pair_left)
        for name in right.names:
            combined[name] = IndirectColumn(right.columns[name], pair_right)
        self._fn = compile_batch(predicate, combined)
        self._pair_left = pair_left

    def keep(self) -> list[int]:
        """Pair positions (into the current pair lists) that satisfy the predicate."""
        fn = self._fn
        return [k for k in range(len(self._pair_left)) if fn(k)]


class BatchHashJoinOp(BatchOperator):
    """Hash equi-join over batches: build right, probe left, gather output."""

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        schema: Schema,
        residual: Expression | None = None,
        how: str = "inner",
    ):
        super().__init__(schema, tuple(left.names) + tuple(right.names), (left, right))
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.how = how

    def execute(self) -> ColumnBatch:
        lb = self.children[0].execute()
        rb = self.children[1].execute()
        right_fns = [compile_batch(k, rb.columns) for k in self.right_keys]
        build: dict[tuple[Any, ...], list[int]] = {}
        for ri in rb.indices():
            key = tuple(fn(ri) for fn in right_fns)
            if any(k is None for k in key):
                continue
            build.setdefault(key, []).append(ri)
        left_fns = [compile_batch(k, lb.columns) for k in self.left_keys]

        # Fast path: an inner join with no residual emits the matched pairs
        # verbatim — no span bookkeeping, no re-scan.
        if self.how != "left" and self.residual is None:
            out_left: list[int] = []
            out_right: list[int | None] = []
            for li in lb.indices():
                key = tuple(fn(li) for fn in left_fns)
                if any(k is None for k in key):
                    continue
                matches = build.get(key)
                if matches:
                    out_left.extend([li] * len(matches))
                    out_right.extend(matches)
            return _gather_join_output(lb, rb, out_left, out_right, self.names)

        # Phase 1: candidate pairs, remembering each probe row's span so
        # left-outer padding can stay interleaved in probe order.
        pair_left: list[int] = []
        pair_right: list[int] = []
        probe_order: list[int] = []
        spans: list[tuple[int, int]] = []
        for li in lb.indices():
            start = len(pair_left)
            key = tuple(fn(li) for fn in left_fns)
            if not any(k is None for k in key):
                for ri in build.get(key, ()):
                    pair_left.append(li)
                    pair_right.append(ri)
            probe_order.append(li)
            spans.append((start, len(pair_left)))

        # Phase 2: residual predicate over the surviving pairs.
        if self.residual is not None and pair_left:
            keep = set(
                _PairFilter(lb, rb, pair_left, pair_right, self.residual).keep()
            )
        else:
            keep = None

        # Phase 3: emit pairs in probe order; pad unmatched probes for outer.
        out_left: list[int] = []
        out_right: list[int | None] = []
        pad = self.how == "left"
        for li, (start, end) in zip(probe_order, spans):
            matched = False
            for k in range(start, end):
                if keep is not None and k not in keep:
                    continue
                matched = True
                out_left.append(pair_left[k])
                out_right.append(pair_right[k])
            if pad and not matched:
                out_left.append(li)
                out_right.append(None)
        return _gather_join_output(lb, rb, out_left, out_right, self.names)

    def label(self) -> str:
        keys = ", ".join(f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys))
        extra = "" if self.residual is None else f", residual={self.residual!r}"
        return f"BatchHashJoin({self.how}, {keys}{extra})"


class BatchNestedLoopJoinOp(BatchOperator):
    """Nested-loop / cross join over batches.

    Evaluates the condition block-wise — one outer row against the whole
    inner batch at a time — so the compiled predicate is reused while
    memory stays at O(|inner|) rather than O(|outer| × |inner|).
    """

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        condition: Expression | None,
        schema: Schema,
        how: str = "inner",
    ):
        super().__init__(schema, tuple(left.names) + tuple(right.names), (left, right))
        self.condition = condition
        self.how = how

    def execute(self) -> ColumnBatch:
        lb = self.children[0].execute()
        rb = self.children[1].execute()
        inner = list(rb.indices())
        n_inner = len(inner)
        pair_left: list[int] = []
        pair_right: list[int] = []
        pair_filter = (
            _PairFilter(lb, rb, pair_left, pair_right, self.condition)
            if self.condition is not None
            else None
        )
        out_left: list[int] = []
        out_right: list[int | None] = []
        pad = self.how == "left"
        for li in lb.indices():
            if pair_filter is None:
                # Condition-less (cross / unconditioned left) join: every
                # inner row matches; skip the pair machinery entirely.
                if n_inner:
                    out_left.extend([li] * n_inner)
                    out_right.extend(inner)
                elif pad:
                    out_left.append(li)
                    out_right.append(None)
                continue
            pair_left[:] = [li] * n_inner
            pair_right[:] = inner
            keep = pair_filter.keep()
            for k in keep:
                out_left.append(li)
                out_right.append(inner[k])
            if pad and not keep:
                out_left.append(li)
                out_right.append(None)
        return _gather_join_output(lb, rb, out_left, out_right, self.names)

    def label(self) -> str:
        return f"BatchNestedLoopJoin({self.how}, on={self.condition!r})"


def _fold_values(func: str, values: Sequence[Any]) -> Any:
    """Combine one group's values in a single pass.

    Semantics match :class:`repro.engine.aggregates.Accumulator` exactly —
    ``None`` values are skipped, each function's identity is returned for an
    all-null group — but the hot combinators avoid per-value method
    dispatch.  Exotic combinators fall back to
    :func:`repro.engine.aggregates.combine_values`.
    """
    if func == "count":
        return sum(1 for v in values if v is not None)
    if func == "sum":
        acc = None
        for v in values:
            if v is not None:
                acc = v if acc is None else acc + v
        return 0 if acc is None else acc
    if func == "min":
        present = [v for v in values if v is not None]
        return min(present) if present else None
    if func == "max":
        present = [v for v in values if v is not None]
        return max(present) if present else None
    if func == "avg":
        present = [v for v in values if v is not None]
        return sum(present) / len(present) if present else None
    if func == "any":
        return any(bool(v) for v in values if v is not None)
    if func == "all":
        return all(bool(v) for v in values if v is not None)
    return combine_values(func, values)


class BatchAggregateOp(BatchOperator):
    """Group-by and aggregation over a batch.

    ``group_names`` are the output column names (the group-by list exactly
    as written, matching the row path's dict keys); ``group_columns`` are
    the corresponding *batch* column names, resolved at plan time.
    """

    def __init__(
        self,
        child: BatchOperator,
        group_names: Sequence[str],
        group_columns: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        schema: Schema,
    ):
        names = list(group_names) + [spec.name for spec in aggregates]
        super().__init__(schema, names, (child,))
        self.group_names = list(group_names)
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)

    def execute(self) -> ColumnBatch:
        batch = self.children[0].execute()
        group_cols = [batch.columns[name] for name in self.group_columns]
        indices = batch.indices()

        # Phase 1: bucket row indices per group key (first-seen order, like
        # the row path's dict of accumulators).
        groups: dict[Any, list[int]] = {}
        if len(group_cols) == 1:
            col0 = group_cols[0]
            setdefault = groups.setdefault
            for i in indices:
                setdefault(col0[i], []).append(i)

            def key_values(key: Any) -> tuple[Any, ...]:
                return (key,)

        elif group_cols:
            setdefault = groups.setdefault
            for i in indices:
                setdefault(tuple(col[i] for col in group_cols), []).append(i)

            def key_values(key: Any) -> tuple[Any, ...]:
                return key

        else:
            # Global aggregate: one group, present even over empty input so
            # the identity row is emitted (SQL semantics, as on the row path).
            groups[()] = list(indices)

            def key_values(key: Any) -> tuple[Any, ...]:
                return ()

        # Phase 2: fold each aggregate over whole groups — no per-row
        # accumulator dispatch.
        arg_fns = [
            None if spec.argument is None else compile_batch(spec.argument, batch.columns)
            for spec in self.aggregates
        ]
        columns: dict[str, list] = {name: [] for name in self.names}
        for key, group_indices in groups.items():
            for name, value in zip(self.group_names, key_values(key)):
                columns[name].append(value)
            for spec, fn in zip(self.aggregates, arg_fns):
                if fn is None:
                    # No argument: the row path feeds the constant 1.
                    if spec.func == "count":
                        result = len(group_indices)
                    else:
                        result = _fold_values(spec.func, [1] * len(group_indices))
                else:
                    result = _fold_values(spec.func, [fn(i) for i in group_indices])
                columns[spec.name].append(result)
        return ColumnBatch(self.names, columns)

    def label(self) -> str:
        aggs = ", ".join(spec.label() for spec in self.aggregates)
        return f"BatchAggregate(by=[{', '.join(self.group_names)}], {aggs})"


class BatchBridgeOp(PhysicalOperator):
    """The batch → row boundary.

    A regular :class:`PhysicalOperator` whose subtree runs in batch form;
    row dicts are materialized exactly once, here, so the executor, plan
    cache and ``explain`` machinery above stay unchanged.
    """

    def __init__(self, batch_root: BatchOperator, schema: Schema):
        super().__init__(schema)
        self.batch_root = batch_root

    def _produce(self) -> Iterator[dict[str, Any]]:
        yield from self.batch_root.execute().to_rows()

    def rows(self) -> list[dict[str, Any]]:
        """Materialize in one step (avoids per-row generator resumption)."""
        self.executions += 1
        start = time.perf_counter()
        try:
            out = self.batch_root.execute().to_rows()
            self.rows_produced += len(out)
            return out
        finally:
            self.elapsed += time.perf_counter() - start

    def label(self) -> str:
        return "BatchBridge"

    def explain(self, indent: int = 0, *, analyze: bool = False) -> str:
        line = ("  " * indent) + self.label()
        if analyze:
            line += f"  [rows={self.rows_produced} execs={self.executions} time={self.elapsed:.4f}s]"
        return line + "\n" + self.batch_root.explain(indent + 1)
