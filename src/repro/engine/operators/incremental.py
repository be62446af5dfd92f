"""Delta-driven incremental execution: operators and materialized views.

The tick loop executes the same queries every tick, yet between ticks most
state tables change only sparsely (a few units move, one light switches).
The batch path still pays O(table) per tick to re-snapshot and re-scan.
This module instead maintains each registered query's *materialized result*
from per-tick deltas:

* :class:`DeltaScanOp` turns a table's change log
  (:meth:`repro.engine.table.Table.changes_since`) into a
  :class:`~repro.engine.batch.DeltaBatch` of signed base rows,
* :class:`DeltaFilterOp` / :class:`DeltaProjectOp` propagate both sides of
  a delta through pure row expressions,
* :class:`DeltaJoinOp` implements the classic bilinear join-delta rule
  ``Δ(A⋈B) = ΔA⋈Bnew ∪ Anew⋈ΔB ∖ ΔA⋈ΔB`` for equi and cross joins,
* :class:`DeltaAggregateOp` keeps per-group accumulators and re-aggregates
  only the groups a delta touches (O(1) maintenance for sum/count/avg,
  group-local refolds for min/max and friends),
* :class:`IncrementalView` owns the result multiset, the per-table synced
  versions it is keyed by, and the fallback ladder: version-identical →
  serve cached; delta available → maintain; anything else
  (:class:`DeltaUnavailable`, :class:`IncrementalError`) → full rebuild.

Which plans are lowered to this form — and which fall back to the batch or
row paths — is decided at plan time by
:class:`repro.engine.optimizer.incremental.IncrementalPlanner`.

Contract: the view maintains the result as a *multiset*; row order may
differ from a fresh full execution after churn (groups and rows keep their
first-seen positions).  Callers for whom order is observable must not
register their plans — :class:`~repro.runtime.world.GameWorld` only
registers effect queries whose combinators are order-insensitive.
Floating-point aggregates are maintained by running addition/subtraction
and may drift from a fresh fold by rounding error (compare with a
tolerance).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.aggregates import make_accumulator
from repro.engine.algebra import AggregateSpec
from repro.engine.batch import DeltaBatch
from repro.engine.errors import ExecutionError
from repro.engine.expressions import BatchCompileError, Expression, compile_batch
from repro.engine.operators.base import PhysicalOperator
from repro.engine.table import Table

__all__ = [
    "DeltaUnavailable",
    "IncrementalError",
    "IncrementalDisabled",
    "DeltaContext",
    "DeltaOperator",
    "DeltaScanOp",
    "DeltaValuesOp",
    "DeltaFilterOp",
    "DeltaProjectOp",
    "BandIndexProbe",
    "DeltaJoinOp",
    "DeltaAggregateOp",
    "DeltaUnionOp",
    "IncrementalView",
]


class DeltaUnavailable(ExecutionError):
    """A delta cannot be produced for this refresh (log truncated, bulk
    rewrite, unknown base version).  The view falls back to a full rebuild;
    the plan stays incremental for subsequent ticks."""


class IncrementalError(ExecutionError):
    """The maintained state disagrees with an incoming delta (should not
    happen; defensive).  The view discards its state and fully rebuilds."""


class IncrementalDisabled(ExecutionError):
    """The view gave up: churn exceeded the guard on several consecutive
    refreshes, so maintenance keeps costing more than plain re-execution.
    The executor drops the view and the query returns to the batch/row
    paths for good."""


class DeltaContext:
    """Per-refresh shared state: the synced versions and the netted base
    deltas, computed once per table no matter how many scans (self-joins!)
    reference it.  ``scan_deltas`` maps table name → a netted
    :class:`DeltaBatch` of row tuples in schema column order."""

    __slots__ = ("since", "scan_deltas")

    def __init__(self, since: Mapping[str, int], scan_deltas: Mapping[str, DeltaBatch]):
        self.since = since
        self.scan_deltas = scan_deltas


class _TupleColumn:
    """A column view over a list of value tuples: ``rows[k][pos]``.

    The delta operators compile their expressions *once* (at construction)
    with :func:`repro.engine.expressions.compile_batch` against these
    views, then re-bind ``rows`` to each delta side per refresh — the same
    compile-once/evaluate-per-index trick the batch path uses, instead of
    materializing a dict per delta row.
    """

    __slots__ = ("rows", "pos")

    def __init__(self, pos: int):
        self.rows: Sequence[tuple] = ()
        self.pos = pos

    def __getitem__(self, k: int) -> Any:
        return self.rows[k][self.pos]


class _RowsEvaluator:
    """Compile expressions over tuple rows with the given column names."""

    __slots__ = ("columns",)

    def __init__(self, names: Sequence[str]):
        self.columns = {name: _TupleColumn(pos) for pos, name in enumerate(names)}

    def compile(self, expr: Expression):
        """A per-index evaluator, or ``None`` if compilation is unsupported
        (callers then fall back to dict-based ``Expression.evaluate``)."""
        try:
            return compile_batch(expr, self.columns)
        except BatchCompileError:
            return None

    def bind(self, rows: Sequence[tuple]) -> None:
        for column in self.columns.values():
            column.rows = rows


class DeltaOperator:
    """Base class for incremental operators.

    Each node can do three things:

    * :meth:`delta` — the signed change of its output for the refresh
      described by a :class:`DeltaContext`, *updating any internal state*
      as a side effect (so it must be called exactly once per refresh),
    * :meth:`full_rows` — its complete current output as value tuples
      (stateless nodes execute their lowered ``full_plan``; scans read the
      version-cached columnar snapshot; aggregates serve their state),
    * :meth:`rebuild` — discard state and re-derive it from current data.

    ``names`` matches the row-dict keys the row/batch paths would produce,
    which is what makes results interchangeable across all three paths.
    """

    def __init__(
        self,
        names: Sequence[str],
        children: tuple["DeltaOperator", ...] = (),
        full_plan: PhysicalOperator | None = None,
    ):
        self.names = tuple(names)
        self.children = children
        self.full_plan = full_plan

    # -- interface ----------------------------------------------------------------

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        raise NotImplementedError

    def full_rows(self) -> list[tuple]:
        """Current full output as value tuples in ``names`` order."""
        if self.full_plan is None:
            raise ExecutionError(f"{type(self).__name__} has no full plan")
        names = self.names
        return [tuple(row[n] for n in names) for row in self.full_plan.rows()]

    def rebuild(self) -> None:
        for child in self.children:
            child.rebuild()

    # -- debugging ----------------------------------------------------------------

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        parts = [("  " * indent) + self.label()]
        for child in self.children:
            parts.append(child.explain(indent + 1))
        return "\n".join(parts)

    def walk(self) -> Iterator["DeltaOperator"]:
        yield self
        for child in self.children:
            yield from child.walk()


class DeltaScanOp(DeltaOperator):
    """Produce a base table's net row changes as a signed delta.

    ``names`` may be alias-qualified; tuples are always in the table's
    schema column order, so qualification is purely a naming concern.
    """

    def __init__(self, table: Table, names: Sequence[str]):
        super().__init__(names)
        self.table = table
        self._columns = table.schema.names

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        base_delta = ctx.scan_deltas.get(self.table.name)
        if base_delta is None:
            raise DeltaUnavailable(f"no base delta for table {self.table.name!r}")
        # Rename only: tuples are shared with the context's per-table delta.
        return DeltaBatch(
            self.names, base_delta.added, base_delta.removed, netted=base_delta.netted
        )

    def full_rows(self) -> list[tuple]:
        batch = self.table.to_batch()
        if not self._columns:
            return []
        return list(zip(*(batch.column(c) for c in self._columns)))

    def label(self) -> str:
        return f"DeltaScan({self.table.name})"


class DeltaValuesOp(DeltaOperator):
    """A constant inline relation: its delta is always empty."""

    def __init__(self, names: Sequence[str], rows: Sequence[Mapping[str, Any]]):
        super().__init__(names)
        self._rows = [tuple(row.get(n) for n in self.names) for row in rows]

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        return DeltaBatch.empty(self.names)

    def full_rows(self) -> list[tuple]:
        return list(self._rows)

    def label(self) -> str:
        return f"DeltaValues({len(self._rows)} rows)"


class DeltaFilterOp(DeltaOperator):
    """Filter both sides of the child delta with a pure predicate.

    A row that satisfied the predicate before and after an update nets out
    upstream; one that crossed the predicate boundary survives on exactly
    one side — which is precisely the change of the filtered relation.
    """

    def __init__(
        self,
        child: DeltaOperator,
        predicate: Expression,
        full_plan: PhysicalOperator | None = None,
    ):
        super().__init__(child.names, (child,), full_plan)
        self.predicate = predicate
        self._evaluator = _RowsEvaluator(self.names)
        # One pass per AND-conjunct over the surviving indices, exactly like
        # BatchFilterOp: specialized comparisons where possible, generic
        # compiled closures otherwise, dict evaluation as the last resort.
        from repro.engine.expressions import BinaryOp
        from repro.engine.operators.batch_ops import _fast_comparison_pass

        conjuncts = (
            predicate.conjuncts() if isinstance(predicate, BinaryOp) else [predicate]
        )
        self._passes = []
        for conjunct in conjuncts:
            fast = _fast_comparison_pass(conjunct, self._evaluator.columns)
            if fast is not None:
                self._passes.append(fast)
                continue
            fn = self._evaluator.compile(conjunct)
            if fn is None:
                self._passes = None
                break
            self._passes.append(lambda sel, fn=fn: [k for k in sel if fn(k)])

    def _filter(self, rows: Sequence[tuple]) -> list[tuple]:
        if not rows:
            return []
        if self._passes is not None:
            self._evaluator.bind(rows)
            selection: Sequence[int] = range(len(rows))
            for conjunct_pass in self._passes:
                selection = conjunct_pass(selection)
                if not selection:
                    return []
            return [rows[k] for k in selection]
        predicate = self.predicate
        names = self.names
        return [
            values for values in rows if predicate.evaluate(dict(zip(names, values)))
        ]

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        child_delta = self.children[0].delta(ctx)
        if child_delta.is_empty():
            return DeltaBatch.empty(self.names)
        # Filtering disjoint sides keeps them disjoint: net-ness carries over.
        return DeltaBatch(
            self.names,
            self._filter(child_delta.added),
            self._filter(child_delta.removed),
            netted=child_delta.netted,
        )

    def label(self) -> str:
        return f"DeltaFilter({self.predicate!r})"


class DeltaProjectOp(DeltaOperator):
    """Project both sides of the child delta through pure expressions."""

    def __init__(
        self,
        child: DeltaOperator,
        projections: Sequence[tuple[str, Expression]],
        full_plan: PhysicalOperator | None = None,
    ):
        super().__init__([name for name, _ in projections], (child,), full_plan)
        self.projections = list(projections)
        self._evaluator = _RowsEvaluator(child.names)
        fns = [self._evaluator.compile(expr) for _, expr in projections]
        self._compiled = fns if all(fn is not None for fn in fns) else None

    def _project(self, rows: Sequence[tuple]) -> list[tuple]:
        if not rows:
            return []
        if self._compiled is not None:
            self._evaluator.bind(rows)
            fns = self._compiled
            return [tuple(fn(k) for fn in fns) for k in range(len(rows))]
        child_names = self.children[0].names
        projections = self.projections
        out = []
        for values in rows:
            row = dict(zip(child_names, values))
            out.append(tuple(expr.evaluate(row) for _, expr in projections))
        return out

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        child_delta = self.children[0].delta(ctx)
        if child_delta.is_empty():
            return DeltaBatch.empty(self.names)
        return DeltaBatch(
            self.names,
            self._project(child_delta.added),
            self._project(child_delta.removed),
        ).net()

    def label(self) -> str:
        return f"DeltaProject({', '.join(name for name, _ in self.projections)})"


class BandIndexProbe:
    """Persistent-index probing for :class:`DeltaJoinOp`'s ``ΔA ⋈ Bnew`` term.

    A keyless band join's delta rule joins each left-delta row against the
    *entire* current right side — which :meth:`DeltaOperator.full_rows`
    materializes with a full table scan, exactly the per-tick O(table) cost
    the incremental path exists to avoid.  When the right side is a base
    table with a registered range-capable index over the probe columns,
    this spec probes that index per delta row instead: the unchanged side
    is never rescanned, and per-refresh work drops to O(|Δ| · candidates).

    The index is re-resolved on **every refresh** (:meth:`find_index`), so
    indexes the advisor creates or evicts after the view was registered are
    picked up without replanning.  Candidates may over-approximate (grid
    cells, uncovered dimensions); the caller filters them through the full
    join condition, so exactness never depends on the index.
    """

    def __init__(self, table: Table, dimensions: Sequence[tuple[str, Expression, Any]]):
        self.table = table
        #: ``(resolved right column, low expr, high expr)`` — exprs over left rows.
        self.dimensions = list(dimensions)
        #: Optional advisor hook ``(n_probes, width_sum, width_count)``.
        self.advisor_hook = None
        #: Delta rows joined through the index (introspection/tests).
        self.index_probes = 0

    def find_index(self):
        """The best registered range-capable index over the probe columns
        (:meth:`Table.find_index_covering`), re-resolved per refresh;
        ``None`` keeps the hash fallback."""
        covering = self.table.find_index_covering(
            [column for column, _, _ in self.dimensions]
        )
        return None if covering is None else covering[1]

    def bounds_of(self, left_row: Mapping[str, Any]) -> dict[str, tuple[float, float]] | None:
        """Per-column probe bounds for one left row, or ``None`` when a
        bound is null/inverted (the join condition cannot match then)."""
        out: dict[str, tuple[float, float]] = {}
        for column, low_expr, high_expr in self.dimensions:
            low = low_expr.evaluate(left_row)
            high = high_expr.evaluate(left_row)
            if low is None or high is None or high < low:
                return None
            out[column] = (float(low), float(high))
        return out

    def candidates(
        self, index, bounds: Mapping[str, tuple[float, float]], left_values: tuple
    ) -> list[tuple]:
        """Combined candidate rows for one probe (superset of the matches)."""
        table = self.table
        columns = table.schema.names
        search = [bounds[c] for c in index.columns]
        return [
            left_values + tuple(row[c] for c in columns)
            for row in map(table.get, index.range_search(search))
        ]


class DeltaJoinOp(DeltaOperator):
    """Incremental join via the bilinear delta rule.

    With ``Anew = Aold + ΔA`` and ``Bnew = Bold + ΔB`` over signed
    multisets::

        Δ(A ⋈ B) = ΔA ⋈ Bnew  +  Anew ⋈ ΔB  −  ΔA ⋈ ΔB

    Every term joins a (small) delta against either the other side's full
    current state or the other delta, so the work per refresh is
    O(|Δ| + |full side|) rather than O(|A|·|B| matches).  The full side of
    a term is only materialized when the opposite delta is non-empty — on a
    tick where only one input changed, the other side is never scanned.

    Without keys (``left_keys == []``) every row pair is a candidate and
    ``residual`` carries the whole join condition — this is how cross joins
    and the Figure-2 band-join shape are maintained; the per-refresh cost
    becomes O(|Δ| · |full side|), which the view's churn guard keeps below
    the cost of a full re-execution.  For the band-join shape specifically,
    a ``band_probe`` (:class:`BandIndexProbe`) built by the incremental
    planner lets the ``ΔA ⋈ Bnew`` terms probe a persistent index on the
    right base table instead of rescanning it — the unchanged side is then
    never materialized at all.

    ``how="left"`` additionally maintains the null-padded rows of a left
    outer join.  The outer part is *non*-monotonic — an insert on the right
    retracts a padded row — so the delta adds the padding correction::

        Δpad = Σ_{a ∈ Anew} ([m_new(a)=0] − [m_old(a)=0]) · pad(a)
             + Σ_{a ∈ ΔA} sign(a) · [m_old(a)=0] · pad(a)

    where ``m(a)`` counts a row's surviving matches (key equality plus
    residual, mirroring the row path's ``matched`` flag) and ``m_old`` is
    recovered as ``m_new − Δm`` from the right-side delta — no extra state.
    """

    def __init__(
        self,
        left: DeltaOperator,
        right: DeltaOperator,
        left_keys: Sequence[Expression],
        right_keys: Sequence[Expression],
        residual: Expression | None,
        full_plan: PhysicalOperator | None = None,
        how: str = "inner",
        band_probe: "BandIndexProbe | None" = None,
    ):
        super().__init__(tuple(left.names) + tuple(right.names), (left, right), full_plan)
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.how = how
        self.band_probe = band_probe
        self._null_pad = (None,) * len(right.names)
        self._left_eval = _RowsEvaluator(left.names)
        self._right_eval = _RowsEvaluator(right.names)
        self._left_key_fns = self._compile_keys(self._left_eval, left_keys)
        self._right_key_fns = self._compile_keys(self._right_eval, right_keys)
        self._residual_eval = _RowsEvaluator(self.names)
        self._residual_fn = (
            None if residual is None else self._residual_eval.compile(residual)
        )

    @staticmethod
    def _compile_keys(evaluator: _RowsEvaluator, keys: Sequence[Expression]):
        fns = [evaluator.compile(k) for k in keys]
        return fns if all(fn is not None for fn in fns) else None

    # -- key / residual evaluation ---------------------------------------------------

    def _keys_of(
        self,
        evaluator: _RowsEvaluator,
        fns,
        names: tuple[str, ...],
        keys: Sequence[Expression],
        rows: Sequence[tuple],
    ) -> list[tuple | None]:
        """Evaluate the join key for each row; ``None`` marks a null key
        (never matches, mirroring the hash-join paths)."""
        if not keys:  # cross join: single shared bucket
            return [() for _ in rows]
        out: list[tuple | None] = []
        if fns is not None:
            evaluator.bind(rows)
            for k in range(len(rows)):
                key = tuple(fn(k) for fn in fns)
                out.append(None if any(v is None for v in key) else key)
            return out
        for values in rows:
            row = dict(zip(names, values))
            key = tuple(k.evaluate(row) for k in keys)
            out.append(None if any(v is None for v in key) else key)
        return out

    def _left_keys_of(self, rows: Sequence[tuple]) -> list[tuple | None]:
        return self._keys_of(
            self._left_eval, self._left_key_fns, self.children[0].names, self.left_keys, rows
        )

    def _right_keys_of(self, rows: Sequence[tuple]) -> list[tuple | None]:
        return self._keys_of(
            self._right_eval, self._right_key_fns, self.children[1].names, self.right_keys, rows
        )

    def _surviving(self, candidates: list[tuple]) -> list[tuple]:
        """Filter candidate combined rows through the residual predicate."""
        if self.residual is None or not candidates:
            return candidates
        if self._residual_fn is not None:
            self._residual_eval.bind(candidates)
            keep = self._residual_fn
            return [values for k, values in enumerate(candidates) if keep(k)]
        residual = self.residual
        names = self.names
        return [
            values for values in candidates if residual.evaluate(dict(zip(names, values)))
        ]

    def _probe(
        self,
        probe_rows: Sequence[tuple],
        probe_keys: Sequence[tuple | None],
        build: Mapping[tuple, list[tuple]],
        out: list[tuple],
    ) -> None:
        """Probe left-side rows against a hash of right-side rows.

        Candidates are filtered per probe row, so keyless (cross / band)
        probes never materialize more than one row's candidates at a time.
        """
        for values, key in zip(probe_rows, probe_keys):
            if key is None:
                continue
            bucket = build.get(key)
            if not bucket:
                continue
            out.extend(self._surviving([values + other for other in bucket]))

    @staticmethod
    def _hash(rows: Sequence[tuple], keys: Sequence[tuple | None]) -> dict[tuple, list[tuple]]:
        table: dict[tuple, list[tuple]] = {}
        for values, key in zip(rows, keys):
            if key is not None:
                table.setdefault(key, []).append(values)
        return table

    def _band_bounds(
        self, rows: Sequence[tuple]
    ) -> tuple[list[tuple[tuple, dict[str, tuple[float, float]]]], int, float, int]:
        """Evaluate band-probe bounds for delta rows.

        Returns the usable ``(values, bounds)`` pairs plus the probe/width
        statistics the advisor consumes — the one place those numbers are
        computed, whether the refresh ends up on the index or the hash
        fallback path.
        """
        probe = self.band_probe
        left_names = self.children[0].names
        pairs: list[tuple[tuple, dict[str, tuple[float, float]]]] = []
        n_probes = 0
        width_sum = 0.0
        width_count = 0
        for values in rows:
            bounds = probe.bounds_of(dict(zip(left_names, values)))
            if bounds is None:
                continue
            n_probes += 1
            for low, high in bounds.values():
                width_sum += high - low
                width_count += 1
            pairs.append((values, bounds))
        return pairs, n_probes, width_sum, width_count

    def _probe_band(self, index, rows: Sequence[tuple], out: list[tuple]) -> None:
        """Join delta rows against the right side via its persistent index.

        Candidates over-approximate (grid cells, uncovered dimensions);
        :meth:`_surviving` applies the full join condition, so the result
        is exactly what the hash path would have produced — without ever
        materializing the unchanged right side.
        """
        probe = self.band_probe
        pairs, n_probes, width_sum, width_count = self._band_bounds(rows)
        for values, bounds in pairs:
            candidates = probe.candidates(index, bounds, values)
            if candidates:
                out.extend(self._surviving(candidates))
        probe.index_probes += n_probes
        if probe.advisor_hook is not None:
            probe.advisor_hook(n_probes, width_sum, width_count)

    def _record_band_activity(self, dl: DeltaBatch) -> None:
        """Report hash-fallback band probes to the index advisor, so a
        band join that stays hot gets an index even when it is only ever
        maintained incrementally."""
        _, n_probes, width_sum, width_count = self._band_bounds(
            list(dl.added) + list(dl.removed)
        )
        self.band_probe.advisor_hook(n_probes, width_sum, width_count)

    def _count_matches(
        self, values: tuple, key: tuple | None, build: Mapping[tuple, list[tuple]]
    ) -> int:
        """How many build-side rows *values* matches (key plus residual)."""
        if key is None:
            return 0
        bucket = build.get(key)
        if not bucket:
            return 0
        if self.residual is None:
            return len(bucket)
        return len(self._surviving([values + other for other in bucket]))

    # -- delta ------------------------------------------------------------------------

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        left, right = self.children
        dl = left.delta(ctx)
        dr = right.delta(ctx)
        if dl.is_empty() and dr.is_empty():
            return DeltaBatch.empty(self.names)
        added: list[tuple] = []
        removed: list[tuple] = []
        lnames, rnames = left.names, right.names

        dl_add_keys = self._left_keys_of(dl.added)
        dl_rem_keys = self._left_keys_of(dl.removed)
        dr_add_keys = self._right_keys_of(dr.added)
        dr_rem_keys = self._right_keys_of(dr.removed)
        dr_add_hash = self._hash(dr.added, dr_add_keys)
        dr_rem_hash = self._hash(dr.removed, dr_rem_keys)

        band_index = None
        if (
            self.band_probe is not None
            and not self.left_keys
            and self.how == "inner"
            and not dl.is_empty()
        ):
            band_index = self.band_probe.find_index()

        b_hash: dict[tuple, list[tuple]] | None = None
        if band_index is None and (
            not dl.is_empty() or (self.how == "left" and not dr.is_empty())
        ):
            b_rows = right.full_rows()
            b_hash = self._hash(b_rows, self._right_keys_of(b_rows))
        a_rows: list[tuple] | None = None
        a_keys: list[tuple | None] | None = None
        if not dr.is_empty():
            a_rows = left.full_rows()
            a_keys = self._left_keys_of(a_rows)

        # ΔA ⋈ Bnew
        if not dl.is_empty():
            if band_index is not None:
                self._probe_band(band_index, dl.added, added)
                self._probe_band(band_index, dl.removed, removed)
            else:
                self._probe(dl.added, dl_add_keys, b_hash, added)
                self._probe(dl.removed, dl_rem_keys, b_hash, removed)
                if (
                    self.band_probe is not None
                    and self.band_probe.advisor_hook is not None
                    and not self.left_keys
                    and self.how == "inner"
                ):
                    self._record_band_activity(dl)
        # Anew ⋈ ΔB
        if not dr.is_empty():
            self._probe(a_rows, a_keys, dr_add_hash, added)
            self._probe(a_rows, a_keys, dr_rem_hash, removed)
        # − ΔA ⋈ ΔB (sign of each pair is the negated product of the sides')
        if not dl.is_empty() and not dr.is_empty():
            self._probe(dl.added, dl_add_keys, dr_add_hash, removed)
            self._probe(dl.added, dl_add_keys, dr_rem_hash, added)
            self._probe(dl.removed, dl_rem_keys, dr_add_hash, added)
            self._probe(dl.removed, dl_rem_keys, dr_rem_hash, removed)

        if self.how == "left":
            pad = self._null_pad

            def m_delta(values: tuple, key: tuple | None) -> int:
                return self._count_matches(values, key, dr_add_hash) - self._count_matches(
                    values, key, dr_rem_hash
                )

            if not dr.is_empty():
                # Padding term 1: current left rows whose surviving match
                # count crossed zero because of the right-side delta.
                for values, key in zip(a_rows, a_keys):
                    dm = m_delta(values, key)
                    if dm == 0:
                        continue
                    m_new = self._count_matches(values, key, b_hash)
                    m_old = m_new - dm
                    if m_old == 0 and m_new > 0:
                        removed.append(values + pad)
                    elif m_old > 0 and m_new == 0:
                        added.append(values + pad)
            # Padding term 2: delta left rows that were unmatched *before*
            # this refresh (together with term 1 this emits a pad exactly
            # for added rows with no current match, and retracts the pad of
            # removed rows that had none).
            for values, key in zip(dl.added, dl_add_keys):
                if self._count_matches(values, key, b_hash) - m_delta(values, key) == 0:
                    added.append(values + pad)
            for values, key in zip(dl.removed, dl_rem_keys):
                if self._count_matches(values, key, b_hash) - m_delta(values, key) == 0:
                    removed.append(values + pad)
        return DeltaBatch(self.names, added, removed).net()

    def label(self) -> str:
        if not self.left_keys:
            cond = "cross" if self.residual is None else f"on={self.residual!r}"
            return f"DeltaJoin({self.how}, {cond})"
        keys = ", ".join(
            f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        extra = "" if self.residual is None else f", residual={self.residual!r}"
        return f"DeltaJoin({self.how}, {keys}{extra})"


#: Aggregates maintained by running addition/subtraction — O(1) per delta row.
_FAST_AGGS = frozenset({"sum", "count", "avg"})

#: Aggregates the incremental path can maintain at all.  ``first``/``last``/
#: ``collect`` depend on input row order, which a maintained multiset does
#: not preserve — plans using them fall back at plan time.
MAINTAINABLE_AGGS = frozenset(
    {"sum", "count", "min", "max", "avg", "median", "any", "all", "union", "choose"}
)


class _GroupState:
    """Per-group maintenance state: the contributing argument-value
    multiset (for exact removal and refolds) plus running (sum, count)
    pairs for the fast aggregates."""

    __slots__ = ("rows", "size", "fast")

    def __init__(self, n_specs: int):
        self.rows: Counter = Counter()
        self.size = 0
        self.fast: list[list[Any]] = [[0, 0] for _ in range(n_specs)]


class DeltaAggregateOp(DeltaOperator):
    """Group-by maintenance with dirty-group re-aggregation.

    Sum/count/avg update in O(1) per delta row.  Order-insensitive but
    non-subtractable aggregates (min, max, median, any, all, union,
    choose) re-fold *only the groups the delta touched*, from the stored
    per-group value multiset — never from the base table.
    """

    def __init__(
        self,
        child: DeltaOperator,
        group_names: Sequence[str],
        group_indices: Sequence[int],
        aggregates: Sequence[AggregateSpec],
    ):
        names = list(group_names) + [spec.name for spec in aggregates]
        super().__init__(names, (child,))
        self.group_names = list(group_names)
        self.group_indices = list(group_indices)
        self.aggregates = list(aggregates)
        self._needs_row = any(spec.argument is not None for spec in self.aggregates)
        self._fast_specs = [
            i for i, spec in enumerate(self.aggregates) if spec.func in _FAST_AGGS
        ]
        self._groups: dict[tuple, _GroupState] = {}
        self._out: dict[tuple, tuple] = {}
        self._evaluator = _RowsEvaluator(child.names)
        fns = [
            None if spec.argument is None else self._evaluator.compile(spec.argument)
            for spec in self.aggregates
        ]
        compilable = all(
            fn is not None or spec.argument is None
            for fn, spec in zip(fns, self.aggregates)
        )
        self._compiled_args = fns if compilable else None
        # Bare column references (the common aggregate argument) read the
        # value straight out of the tuple, skipping even the compiled call.
        from repro.engine.expressions import ColumnRef, resolve_batch_column

        self._arg_positions: list[int | None] = []
        for spec in self.aggregates:
            position = None
            if isinstance(spec.argument, ColumnRef):
                resolved = resolve_batch_column(spec.argument.name, child.names)
                if resolved is not None:
                    position = child.names.index(resolved)
            self._arg_positions.append(position)

    # -- state maintenance -------------------------------------------------------------

    def _arg_values(self, child_names: tuple[str, ...], values: tuple) -> tuple:
        row = dict(zip(child_names, values)) if self._needs_row else None
        return tuple(
            1 if spec.argument is None else spec.argument.evaluate(row)
            for spec in self.aggregates
        )

    def _process_rows(
        self, rows: Sequence[tuple], sign: int, dirty: dict[tuple, tuple | None] | None
    ) -> None:
        """Fold one delta side (or, with ``dirty=None``, a full rebuild pass)
        into the group states."""
        if not rows:
            return
        indices = self.group_indices
        child_names = self.children[0].names
        compiled = self._compiled_args
        positions = self._arg_positions
        if compiled is not None:
            self._evaluator.bind(rows)
        for k, values in enumerate(rows):
            key = tuple(values[i] for i in indices)
            if dirty is not None and key not in dirty:
                dirty[key] = self._out.get(key)
            if compiled is not None:
                args = tuple(
                    values[pos]
                    if pos is not None
                    else (1 if fn is None else fn(k))
                    for pos, fn in zip(positions, compiled)
                )
            else:
                args = self._arg_values(child_names, values)
            self._apply(key, args, sign)

    def _apply(self, key: tuple, args: tuple, sign: int) -> None:
        group = self._groups.get(key)
        if group is None:
            if sign < 0:
                raise IncrementalError(f"removal from unknown group {key!r}")
            group = self._groups[key] = _GroupState(len(self.aggregates))
        rows = group.rows
        count = rows.get(args, 0) + sign
        if count < 0:
            raise IncrementalError(f"removal of untracked row {args!r} from group {key!r}")
        if count == 0:
            del rows[args]
        else:
            rows[args] = count
        group.size += sign
        for i in self._fast_specs:
            value = args[i]
            if value is not None:
                fast = group.fast[i]
                fast[0] += sign * value
                fast[1] += sign

    def _fold(self, key: tuple, group: _GroupState) -> tuple:
        out = list(key)
        for i, spec in enumerate(self.aggregates):
            func = spec.func
            if func in _FAST_AGGS:
                total, count = group.fast[i]
                if func == "count":
                    out.append(count)
                elif func == "sum":
                    out.append(total if count else 0)
                else:  # avg
                    out.append(total / count if count else None)
            else:
                acc = make_accumulator(func)
                for args, count in group.rows.items():
                    value = args[i]
                    for _ in range(count):
                        acc.add(value)
                out.append(acc.result())
        return tuple(out)

    # -- DeltaOperator interface ----------------------------------------------------------

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        child_delta = self.children[0].delta(ctx).net()
        if child_delta.is_empty():
            return DeltaBatch.empty(self.names)
        dirty: dict[tuple, tuple | None] = {}
        self._process_rows(child_delta.removed, -1, dirty)
        self._process_rows(child_delta.added, 1, dirty)
        added: list[tuple] = []
        removed: list[tuple] = []
        global_group = not self.group_names
        for key, old_out in dirty.items():
            group = self._groups.get(key)
            if group is not None and group.size == 0 and not global_group:
                del self._groups[key]
                group = None
            new_out = self._fold(key, group) if group is not None else None
            if new_out == old_out:
                continue
            if old_out is not None:
                removed.append(old_out)
            if new_out is not None:
                added.append(new_out)
                self._out[key] = new_out
            else:
                self._out.pop(key, None)
        # Each dirty group contributes at most one distinct old and one
        # distinct new output row, so the sides are disjoint by construction.
        return DeltaBatch(self.names, added, removed, netted=True)

    def rebuild(self) -> None:
        super().rebuild()
        self._groups.clear()
        self._out.clear()
        self._process_rows(self.children[0].full_rows(), 1, None)
        if not self.group_names and () not in self._groups:
            # Global aggregate over empty input still emits one identity row.
            self._groups[()] = _GroupState(len(self.aggregates))
        for key, group in self._groups.items():
            self._out[key] = self._fold(key, group)

    def full_rows(self) -> list[tuple]:
        return list(self._out.values())

    def label(self) -> str:
        aggs = ", ".join(spec.label() for spec in self.aggregates)
        return f"DeltaAggregate(by=[{', '.join(self.group_names)}], {aggs})"


class DeltaUnionOp(DeltaOperator):
    """Bag union: the delta of a union is the union of the deltas."""

    def __init__(
        self,
        left: DeltaOperator,
        right: DeltaOperator,
        full_plan: PhysicalOperator | None = None,
    ):
        super().__init__(left.names, (left, right), full_plan)

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        dl = self.children[0].delta(ctx)
        dr = self.children[1].delta(ctx)
        return DeltaBatch(
            self.names, dl.added + dr.added, dl.removed + dr.removed
        )

    def label(self) -> str:
        return "DeltaUnion"


class IncrementalView:
    """A materialized query result maintained from table deltas.

    The cache key is the referenced tables' version vector:

    * versions unchanged → serve the cached multiset (no scan at all),
    * all deltas available → propagate them through the operator tree and
      patch the multiset (work proportional to the churn),
    * otherwise → rebuild everything from a full execution.

    Results are handed out as fresh row dicts on every call, so callers may
    mutate them freely, exactly like the row and batch paths.

    A *churn guard* bounds the delta path: when the pending mutations exceed
    ``churn_threshold`` of the total referenced rows, maintenance can cost
    more than a (batch) re-execution — especially for the keyless join terms
    — so the view rebuilds instead.  A world where everything moves every
    tick therefore degrades gracefully to full execution, and after
    ``disable_after`` *consecutive* guard trips the view raises
    :class:`IncrementalDisabled` so the executor can drop it entirely and
    stop paying even the rebuild bookkeeping.
    """

    def __init__(
        self,
        root: DeltaOperator,
        tables: Mapping[str, Table],
        names: Sequence[str],
        churn_threshold: float = 0.3,
        disable_after: int = 3,
    ):
        self.root = root
        self.tables = dict(tables)
        self.names = tuple(names)
        self.churn_threshold = churn_threshold
        self.disable_after = disable_after
        self._synced: dict[str, int] | None = None
        self._counts: dict[tuple, int] = {}
        self._materialized: list[dict[str, Any]] | None = None
        self._consecutive_trips = 0
        self.full_refreshes = 0
        self.delta_refreshes = 0
        self.noop_hits = 0
        self.guard_trips = 0

    # -- refresh ------------------------------------------------------------------------

    def refresh(self) -> list[dict[str, Any]]:
        current = {name: table.version for name, table in self.tables.items()}
        if self._synced is None:
            self._full_refresh()
        elif current != self._synced:
            self._refresh_changed()
        else:
            self.noop_hits += 1
            self._consecutive_trips = 0
        self._synced = current
        return self._materialize()

    def _refresh_changed(self) -> None:
        ctx = self._prepare_context()
        if ctx is None:  # a change log cannot serve the synced version
            self._full_refresh()
            return
        net_churn = sum(len(delta) for delta in ctx.scan_deltas.values())
        if net_churn == 0:
            # Versions moved but every change netted out (e.g. no-op
            # updates): nothing to propagate at all.
            self.noop_hits += 1
            self._consecutive_trips = 0
            return
        total_rows = sum(len(table) for table in self.tables.values())
        if net_churn > max(64, self.churn_threshold * total_rows):
            self.guard_trips += 1
            self._consecutive_trips += 1
            if self._consecutive_trips >= self.disable_after:
                raise IncrementalDisabled(
                    f"churn exceeded {self.churn_threshold:.0%} of referenced rows "
                    f"{self._consecutive_trips} refreshes in a row"
                )
            self._full_refresh()
            return
        try:
            self._apply(self.root.delta(ctx).net())
            self.delta_refreshes += 1
            self._consecutive_trips = 0
        except (DeltaUnavailable, IncrementalError):
            self._full_refresh()

    def _prepare_context(self) -> DeltaContext | None:
        """Net each referenced table's changes once (shared by all scans)."""
        since = self._synced
        scan_deltas: dict[str, DeltaBatch] = {}
        for name, table in self.tables.items():
            columns = table.schema.names
            changes = table.changes_since(since.get(name, -1))
            if changes is None:
                return None
            added, removed = changes
            scan_deltas[name] = DeltaBatch(
                columns,
                [tuple(row[c] for c in columns) for row in added],
                [tuple(row[c] for c in columns) for row in removed],
            ).net()
        return DeltaContext(since, scan_deltas)

    def _full_refresh(self) -> None:
        self.root.rebuild()
        counts: dict[tuple, int] = {}
        for values in self.root.full_rows():
            counts[values] = counts.get(values, 0) + 1
        self._counts = counts
        self._materialized = None
        self.full_refreshes += 1

    def _apply(self, delta: DeltaBatch) -> None:
        counts = self._counts
        for values in delta.removed:
            count = counts.get(values, 0)
            if count <= 0:
                raise IncrementalError(f"removal of untracked result row {values!r}")
            if count == 1:
                del counts[values]
            else:
                counts[values] = count - 1
        for values in delta.added:
            counts[values] = counts.get(values, 0) + 1
        if not delta.is_empty():
            self._materialized = None

    def _materialize(self) -> list[dict[str, Any]]:
        """Serve the result as fresh dicts (callers may mutate them).

        The dict forms are cached until the multiset changes; serving a
        cached result costs one shallow copy per row.
        """
        if self._materialized is None:
            names = self.names
            rows: list[dict[str, Any]] = []
            for values, count in self._counts.items():
                row = dict(zip(names, values))
                for _ in range(count):
                    rows.append(row)
            self._materialized = rows
        return [dict(row) for row in self._materialized]

    # -- introspection ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "full_refreshes": self.full_refreshes,
            "delta_refreshes": self.delta_refreshes,
            "noop_hits": self.noop_hits,
            "guard_trips": self.guard_trips,
            "cached_rows": sum(self._counts.values()),
        }

    def explain(self) -> str:
        return self.root.explain()
