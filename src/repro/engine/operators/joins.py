"""Join operators.

The SGL workload is dominated by self-joins with spatial range predicates
("all units within range of me"), equi-joins on object references, and
small cross products in effect computation.  The planner chooses between:

* :class:`NestedLoopJoinOp` — the fallback; also the only operator that
  supports arbitrary residual predicates and left-outer semantics directly,
  and (without a condition) the cross product.
* :class:`HashJoinOp` — equi-joins; builds a hash table on the right input.
* :class:`RangeProbeJoinOp` — band joins on per-row computed bounds
  (``u.x >= x - range && u.x <= x + range``) through a transient grid built
  from the inner input; the set-at-a-time analogue of Figure 2's
  accum-loop.
* :class:`IndexProbeJoinOp` — the same band joins probing a persistent
  index on the inner table.  No plan builds it: only kernels probe
  indexes, and this operator is the row-order oracle of their loop.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from repro.engine.errors import CatalogError
from repro.engine.expressions import Expression
from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.engine.table import Table

__all__ = [
    "NestedLoopJoinOp",
    "HashJoinOp",
    "RangeProbeJoinOp",
    "IndexProbeJoinOp",
    "band_probe_candidates",
]


def _merge(left: dict[str, Any], right: dict[str, Any]) -> dict[str, Any]:
    out = dict(left)
    out.update(right)
    return out


class NestedLoopJoinOp(PhysicalOperator):
    """Nested-loop join with an arbitrary predicate.

    Supports inner and left-outer joins; without a condition it is the
    cross product.  The right input is materialized once per execution
    (it is re-read every tick anyway).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: Expression | None,
        schema: Schema,
        how: str = "inner",
    ):
        super().__init__(schema, (left, right))
        self.condition = condition
        self.how = how

    def _produce(self) -> Iterator[dict[str, Any]]:
        right_rows = self.children[1].rows()
        right_names = self.children[1].schema.names
        null_right = {name: None for name in right_names}
        condition = self.condition
        for left_row in self.children[0]:
            matched = False
            for right_row in right_rows:
                combined = _merge(left_row, right_row)
                if condition is None or condition.evaluate(combined):
                    matched = True
                    yield combined
            if not matched and self.how == "left":
                yield _merge(left_row, null_right)

    def label(self) -> str:
        return f"NestedLoopJoin({self.how}, on={self.condition!r})"


class HashJoinOp(PhysicalOperator):
    """Hash equi-join: build on the right input, probe with the left.

    ``left_keys`` / ``right_keys`` are expressions evaluated against each
    side; ``residual`` is an optional extra predicate applied to matches
    (used when the join condition has non-equi conjuncts).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        schema: Schema,
        residual: Expression | None = None,
        how: str = "inner",
    ):
        super().__init__(schema, (left, right))
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.how = how

    def _produce(self) -> Iterator[dict[str, Any]]:
        build: dict[tuple[Any, ...], list[dict[str, Any]]] = defaultdict(list)
        for right_row in self.children[1]:
            key = tuple(expr.evaluate(right_row) for expr in self.right_keys)
            if any(k is None for k in key):
                continue
            build[key].append(right_row)
        right_names = self.children[1].schema.names
        null_right = {name: None for name in right_names}
        residual = self.residual
        for left_row in self.children[0]:
            key = tuple(expr.evaluate(left_row) for expr in self.left_keys)
            matched = False
            if not any(k is None for k in key):
                for right_row in build.get(key, ()):
                    combined = _merge(left_row, right_row)
                    if residual is None or residual.evaluate(combined):
                        matched = True
                        yield combined
            if not matched and self.how == "left":
                yield _merge(left_row, null_right)

    def label(self) -> str:
        keys = ", ".join(
            f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        extra = "" if self.residual is None else f", residual={self.residual!r}"
        return f"HashJoin({self.how}, {keys}{extra})"


class RangeProbeJoinOp(PhysicalOperator):
    """Join where the right side is probed with per-row computed ranges.

    For each dimension *i* the planner supplies the right-side coordinate
    column and two expressions over the *left* row computing the lower and
    upper bound — the shape produced by compiling Figure 2's accum-loop
    (``u.x >= x - range && u.x <= x + range`` where ``range`` may itself be
    a per-object attribute).  The right input is materialized into a
    uniform grid whose cell size is estimated from a sample of probe widths,
    so each probe touches only nearby cells.  The full join condition is
    re-checked as a residual predicate.

    Two guards keep degenerate probe distributions from blowing up the cell
    enumeration: zero-width probes (equality lookups) are excluded from the
    cell-size sample, and a probe whose bounding box spans more cells than
    the grid has *occupied* falls back to scanning the occupied cells — so
    one very wide probe costs O(populated cells), never O(width/cell_size).
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        dimensions: Sequence[tuple[str, Expression, Expression]],
        schema: Schema,
        residual: Expression | None = None,
    ):
        super().__init__(schema, (left, right))
        self.dimensions = list(dimensions)
        self.residual = residual
        #: Optional callable ``(n_probes, width_sum, width_count)`` invoked
        #: after each execution; the index advisor uses it to spot band
        #: joins that stay hot across ticks (see optimizer/adaptive.py).
        self.stats_hook: Callable[[int, float, int], None] | None = None

    def _produce(self) -> Iterator[dict[str, Any]]:
        left_rows = self.children[0].rows()
        right_rows = self.children[1].rows()
        if not left_rows or not right_rows:
            # No probes actually executed; report zero so an always-empty
            # join never accumulates advisor heat.
            if self.stats_hook is not None:
                self.stats_hook(0, 0.0, 0)
            return
        dims = self.dimensions
        # Estimate a cell size from the average probe width over a sample.
        # Zero-width probes (exact lookups) are excluded: averaging them in
        # shrinks the cell size toward zero, and a single later wide probe
        # would then enumerate ~width/cell_size cells.
        widths: list[float] = []
        for row in left_rows[: min(len(left_rows), 32)]:
            for _, low_expr, high_expr in dims:
                low = low_expr.evaluate(row)
                high = high_expr.evaluate(row)
                if low is not None and high is not None and high > low:
                    widths.append(float(high) - float(low))
        cell_size = (sum(widths) / len(widths)) if widths else 1.0

        def cell_of(coords: Sequence[float]) -> tuple[int, ...]:
            return tuple(int(c // cell_size) for c in coords)

        grid: dict[tuple[int, ...], list[tuple[tuple[float, ...], dict[str, Any]]]] = defaultdict(list)
        for right_row in right_rows:
            coords = []
            ok = True
            for column, _, _ in dims:
                value = right_row.get(column)
                if value is None:
                    ok = False
                    break
                coords.append(float(value))
            if ok:
                grid[cell_of(coords)].append((tuple(coords), right_row))
        residual = self.residual
        n_probes = 0
        width_sum = 0.0
        width_count = 0
        for left_row in left_rows:
            bounds: list[tuple[float, float]] = []
            ok = True
            for _, low_expr, high_expr in dims:
                low = low_expr.evaluate(left_row)
                high = high_expr.evaluate(left_row)
                if low is None or high is None or high < low:
                    ok = False
                    break
                bounds.append((float(low), float(high)))
            if not ok:
                continue
            n_probes += 1
            for lo, hi in bounds:
                width_sum += hi - lo
                width_count += 1
            lo_cells = [int(lo // cell_size) for lo, _ in bounds]
            hi_cells = [int(hi // cell_size) for _, hi in bounds]
            box_cells = 1
            for lo_c, hi_c in zip(lo_cells, hi_cells):
                box_cells *= hi_c - lo_c + 1
                if box_cells > len(grid):
                    break
            if box_cells <= len(grid):
                cells: Iterator[tuple[int, ...]] = _product(
                    [range(lo_c, hi_c + 1) for lo_c, hi_c in zip(lo_cells, hi_cells)]
                )
            else:
                # The probe box covers more cells than are occupied: scan
                # the occupied cells instead of enumerating the box.
                cells = iter(
                    [
                        cell
                        for cell in grid
                        if all(lo_c <= c <= hi_c for c, lo_c, hi_c in zip(cell, lo_cells, hi_cells))
                    ]
                )
            for cell in cells:
                for coords, right_row in grid.get(cell, ()):
                    if all(lo <= c <= hi for c, (lo, hi) in zip(coords, bounds)):
                        combined = _merge(left_row, right_row)
                        if residual is None or residual.evaluate(combined):
                            yield combined
        if self.stats_hook is not None:
            self.stats_hook(n_probes, width_sum, width_count)

    def label(self) -> str:
        cols = ", ".join(column for column, _, _ in self.dimensions)
        return f"RangeProbeJoin(right=[{cols}])"


class IndexProbeJoinOp(PhysicalOperator):
    """Band/range join probing a *persistent* index on the inner table.

    Where :class:`RangeProbeJoinOp` materializes the inner input and builds
    a transient grid on **every execution**, this operator probes a
    registered table index (``GridIndex`` / ``RangeTreeIndex`` /
    ``SortedIndex``) that the table maintains O(1)-per-mutation anyway —
    Section 4.2's argument that indexing is what makes per-tick range
    queries scale, applied to the actual join path.

    ``dimensions`` are ``(right_column, low_expr, high_expr)`` triples like
    :class:`RangeProbeJoinOp`'s, with ``right_column`` resolved to the inner
    table's schema names.  The index may cover only some probe dimensions
    and may over-approximate near cell borders, so every fetched row is
    re-checked against *all* bounds before the residual runs.

    The index is re-resolved on every execution
    (:func:`band_probe_candidates`), so a plan that outlives its index
    degrades instead of failing.  The compiled band kernel
    (:mod:`repro.engine.compile.kernels`) runs this same loop over column
    lists and is the only plan that probes an index; tests build this
    operator directly as the interpreted reference the kernel must match
    row for row.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        table: "Table",
        index_name: str,
        dimensions: Sequence[tuple[str, Expression, Expression]],
        schema: Schema,
        residual: Expression | None = None,
        alias: str | None = None,
    ):
        super().__init__(schema, (outer,))
        self.table = table
        self.index_name = index_name
        self.dimensions = list(dimensions)
        self.residual = residual
        self.alias = alias
        table.index(index_name)  # validate the name at plan time
        #: Probe columns resolved to the table's schema names (the stored
        #: row dicts use base names even when the scan is aliased).
        self._base_columns = [
            table.schema.resolve(column.split(".")[-1]) for column, _, _ in self.dimensions
        ]
        #: ``(output name, stored name)`` pairs, precomputed so the hot
        #: loop merges fetched rows without per-row string work.
        self._output_columns = [
            (f"{alias}.{name.split('.')[-1]}" if alias else name, name)
            for name in table.schema.names
        ]

    def _produce(self) -> Iterator[dict[str, Any]]:
        candidates = band_probe_candidates(self.table, self.index_name, self._base_columns)
        get_row = self.table.get
        dims = self.dimensions
        base_columns = self._base_columns
        output_columns = self._output_columns
        residual = self.residual
        for outer_row in self.children[0]:
            bounds: list[tuple[float, float]] = []
            ok = True
            for _, low_expr, high_expr in dims:
                low = low_expr.evaluate(outer_row)
                high = high_expr.evaluate(outer_row)
                if low is None or high is None or high < low:
                    ok = False
                    break
                bounds.append((float(low), float(high)))
            if not ok:
                continue
            for rowid in candidates(bounds):
                inner_row = get_row(rowid)
                ok = True
                for column, (lo, hi) in zip(base_columns, bounds):
                    value = inner_row[column]
                    if value is None or value < lo or value > hi:
                        ok = False
                        break
                if not ok:
                    continue
                combined = dict(outer_row)
                for name, stored in output_columns:
                    combined[name] = inner_row[stored]
                if residual is None or residual.evaluate(combined):
                    yield combined

    def label(self) -> str:
        pairs = ", ".join(
            f"{lo!r}<={c}<={hi!r}" for c, lo, hi in self.dimensions
        )
        return f"IndexProbeJoin({self.table.name}.{self.index_name}, {pairs})"


def band_probe_candidates(
    table: "Table", index_name: str, base_columns: Sequence[str]
) -> Callable[[Sequence[tuple[float, float]]], Iterable[Any]]:
    """Resolve a band join's index now; return its per-probe candidate source.

    The returned callable maps one probe's per-dimension ``(low, high)``
    bounds (in *base_columns* order) to candidate row ids, in the index's
    own ``range_search`` order.  Plans can outlive the index they were
    built against (an incremental view's frozen full plan, a cached plan
    raced by the advisor's eviction), so a missing name degrades to any
    other covering index (:meth:`Table.find_index_covering`) and, failing
    that, to every row id per probe — slower, never wrong.  Candidates may
    over-approximate; callers re-check all bounds.
    """
    try:
        index = table.index(index_name)
    except CatalogError:
        covering = table.find_index_covering(base_columns)
        if covering is None:
            return lambda bounds: table.row_ids()
        index = covering[1]
    position = {column: i for i, column in enumerate(base_columns)}
    index_dims = [position[c.split(".")[-1]] for c in index.columns]
    search = index.range_search
    if index_dims == list(range(len(base_columns))):
        return search
    return lambda bounds: search([bounds[i] for i in index_dims])


def _product(ranges: Sequence[range]) -> Iterator[tuple[int, ...]]:
    """Cartesian product of integer ranges as tuples (tiny local itertools.product)."""
    if not ranges:
        yield ()
        return
    for head in ranges[0]:
        for tail in _product(ranges[1:]):
            yield (head,) + tail
