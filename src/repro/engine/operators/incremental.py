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
  ``Δ(A⋈B) = ΔA⋈Bnew ∪ Anew⋈ΔB ∖ ΔA⋈ΔB`` for equi and cross joins; each
  term fetches only the rows of the full side the opposite delta can meet
  (by key, or through a persistent index for band joins),
* :class:`DeltaAggregateOp` keeps per-group accumulators and re-aggregates
  only the groups a delta touches (O(1) maintenance for sum/count/avg,
  group-local refolds for min/max and friends),
* :class:`IncrementalView` owns the result multiset, the per-table synced
  versions it is keyed by, and the fallback ladder: version-identical →
  serve cached; delta available → maintain; anything else
  (:class:`DeltaUnavailable`, :class:`IncrementalError`) → full rebuild.
  Its churn guard is the engine's per-tick plan chooser (Section 4.1):
  under sustained churn the view is *suspended* and the query's kernel
  plan serves it, and it *resumes* once the churn falls.

Every expression a delta operator evaluates is compiled once, into one
function of a value tuple (:func:`repro.engine.compile.exprgen.row_function`).

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

import math
from bisect import bisect_left, insort
from collections import Counter
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.engine.aggregates import make_accumulator
from repro.engine.algebra import AggregateSpec
from repro.engine.batch import DeltaBatch
from repro.engine.errors import ExecutionError
from repro.engine.expressions import ColumnRef, Expression, Literal, resolve_batch_column
from repro.engine.operators.base import PhysicalOperator
from repro.engine.table import Table

__all__ = [
    "DeltaUnavailable",
    "IncrementalError",
    "DeltaContext",
    "DeltaOperator",
    "DeltaScanOp",
    "DeltaFilterOp",
    "DeltaProjectOp",
    "BandIndexProbe",
    "InverseBandProbe",
    "DeltaJoinOp",
    "DeltaAggregateOp",
    "DeltaUnionOp",
    "IncrementalView",
]


def _row_function(
    names: Sequence[str], exprs: Sequence[Expression], *, guard: bool = False
) -> Callable[[tuple], Any]:
    # Imported late: the compile package imports this one through the planner.
    from repro.engine.compile.exprgen import row_function

    return row_function(names, exprs, guard=guard)


def column_positions(names: Sequence[str], exprs: Sequence[Expression]) -> tuple | None:
    """Where each expression, a bare column reference, sits in *names*."""
    found = [
        resolve_batch_column(e.name, names) if isinstance(e, ColumnRef) else None for e in exprs
    ]
    return None if None in found else tuple(names.index(name) for name in found)


class DeltaUnavailable(ExecutionError):
    """A delta cannot be produced for this refresh (log truncated, bulk
    rewrite, unknown base version).  The view falls back to a full rebuild;
    the plan stays incremental for subsequent ticks."""


class IncrementalError(ExecutionError):
    """The maintained state disagrees with an incoming delta (should not
    happen; defensive).  The view discards its state and fully rebuilds."""


class DeltaContext:
    """Per-refresh shared state: the synced versions and the netted base
    deltas, computed once per table no matter how many scans (self-joins!)
    reference it.  ``scan_deltas`` maps table name → a netted
    :class:`DeltaBatch` of row tuples in schema column order."""

    __slots__ = ("since", "scan_deltas")

    def __init__(self, since: Mapping[str, int], scan_deltas: Mapping[str, DeltaBatch]):
        self.since = since
        self.scan_deltas = scan_deltas


class DeltaOperator:
    """Base class for incremental operators.

    Each node can do four things:

    * :meth:`delta` — the signed change of its output for the refresh
      described by a :class:`DeltaContext`, *updating any internal state*
      as a side effect (so it must be called exactly once per refresh),
    * :meth:`full_rows` — its complete current output as value tuples
      (scans read the version-cached columnar snapshot, aggregates serve
      their state, filters/projections above one transform that state,
      other stateless nodes execute their lowered ``full_plan``),
    * :meth:`lookup` — fetch current output rows by key, where it can,
    * :meth:`rebuild` — discard state and re-derive it from current data,
    * :meth:`release` — discard state until the next :meth:`rebuild`.

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

    @property
    def stateful(self) -> bool:
        """Whether the subtree maintains an output of its own (an aggregate)."""
        return any(child.stateful for child in self.children)

    def lookup(self, positions: tuple[int, ...]) -> Callable[[tuple], list[tuple]] | None:
        """A function from a key to the current output rows whose columns at
        *positions* equal it, or ``None`` when this node cannot fetch by key."""
        return None

    def rebuild(self) -> None:
        for child in self.children:
            child.rebuild()

    def release(self) -> None:
        for child in self.children:
            child.release()

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

    def lookup(self, positions: tuple[int, ...]) -> Callable[[tuple], list[tuple]] | None:
        """Fetch by the table's key column (:meth:`Table.get_by_key`)."""
        table, columns = self.table, self._columns
        if table.key is None or positions != (columns.index(table.key),):
            return None

        def fetch(key: tuple) -> list[tuple]:
            row = table.get_by_key(key[0])
            return [] if row is None else [tuple(row[c] for c in columns)]

        return fetch

    def label(self) -> str:
        return f"DeltaScan({self.table.name})"


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
        #: The compiled predicate: one call per value tuple.
        self.keep = _row_function(self.names, [predicate], guard=True)

    def _filter(self, rows: Sequence[tuple]) -> list[tuple]:
        return list(filter(self.keep, rows))

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

    def full_rows(self) -> list[tuple]:
        child = self.children[0]
        return self._filter(child.full_rows()) if child.stateful else super().full_rows()

    def lookup(self, positions: tuple[int, ...]) -> Callable[[tuple], list[tuple]] | None:
        fetch = self.children[0].lookup(positions)
        return None if fetch is None else lambda key: self._filter(fetch(key))

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
        self._row = _row_function(child.names, [expr for _, expr in projections])

    def _project(self, rows: Sequence[tuple]) -> list[tuple]:
        return list(map(self._row, rows))

    def delta(self, ctx: DeltaContext) -> DeltaBatch:
        child_delta = self.children[0].delta(ctx)
        if child_delta.is_empty():
            return DeltaBatch.empty(self.names)
        return DeltaBatch(
            self.names,
            self._project(child_delta.added),
            self._project(child_delta.removed),
        ).net()

    def full_rows(self) -> list[tuple]:
        child = self.children[0]
        return self._project(child.full_rows()) if child.stateful else super().full_rows()

    def lookup(self, positions: tuple[int, ...]) -> Callable[[tuple], list[tuple]] | None:
        """Fetch through a projection that passes the key columns through."""
        child = self.children[0]
        passed = column_positions(child.names, [self.projections[p][1] for p in positions])
        fetch = None if passed is None else child.lookup(passed)
        return None if fetch is None else lambda key: self._project(fetch(key))

    def label(self) -> str:
        return f"DeltaProject({', '.join(name for name, _ in self.projections)})"


class BandIndexProbe:
    """Persistent-index probing for :class:`DeltaJoinOp`'s ``ΔA ⋈ Bnew`` term.

    A keyless band join's delta rule joins each left-delta row against the
    *entire* current right side.  When the right side is a base table with
    a registered range-capable index over the probe columns, this spec
    probes that index per delta row instead, so the per-refresh work is
    O(|Δ| · candidates) and the unchanged side is never rescanned.

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
        #: The probing of the left side for ``Anew ⋈ ΔB``, when it has one.
        self.inverse: InverseBandProbe | None = None

    def find_index(self):
        """The best registered range-capable index over the probe columns
        (:meth:`Table.find_index_covering`), re-resolved per refresh;
        ``None`` keeps the hash fallback."""
        covering = self.table.find_index_covering(
            [column for column, _, _ in self.dimensions]
        )
        return None if covering is None else covering[1]

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


class _MaxBag:
    """A counted multiset of values that knows its maximum."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.ordered: list = []  # the distinct values, ascending

    def update(self, value: Any, sign: int) -> None:
        count = self.counts[value] + sign
        if count < 0:
            raise IncrementalError(f"removal of untracked band width {value!r}")
        if count == 0:
            del self.counts[value]
            del self.ordered[bisect_left(self.ordered, value)]
            return
        if count == 1 and sign > 0:
            insort(self.ordered, value)
        self.counts[value] = count

    def top(self) -> Any:
        return self.ordered[-1] if self.ordered else None


class InverseBandProbe:
    """Index probing for the ``Anew ⋈ ΔB`` term of a keyless band join.

    A band ``A − w_lo ≤ v ≤ A + w_hi`` (``A`` a left column, each ``w`` a
    left column or a constant) inverts to ``A ∈ [v − max w_hi, v + max
    w_lo]``: a box to probe the left base table's range index with, per
    ``ΔB`` value ``v``.  The maxima come from counted multisets maintained
    from ``ΔA`` (:meth:`track`) and rebuilt with the view (:meth:`reset`).
    The box is widened by a few ulps: ``x − r ≤ v`` does not imply
    ``x ≤ v + r`` in floating point.  Candidates pass the left side's
    filters here and the full join condition in the caller.
    """

    def __init__(
        self,
        scan: "DeltaScanOp",
        filters: Sequence[Callable[[tuple], Any]],
        columns: Sequence[str],
        positions: Sequence[int],
        widths: Sequence[Expression],
    ):
        #: The left side: a base-table scan under compiled filter predicates.
        self.scan = scan
        self.table = scan.table
        self.filters = list(filters)
        #: Per dimension: the left table's column ``A``, the position of ``v``
        #: in right rows, and which bags hold its ``w_lo`` and ``w_hi``.
        self.columns = list(columns)
        self.positions = list(positions)
        distinct = list(dict.fromkeys(widths))
        self.bag_of = [distinct.index(width) for width in widths]
        self.widths = _row_function(scan.names, distinct)
        self.bags = [_MaxBag() for _ in distinct]

    def find_index(self):
        """The left table's best covering range index, re-resolved per refresh."""
        covering = self.table.find_index_covering(self.columns)
        return None if covering is None else covering[1]

    def track(self, rows: Sequence[tuple], sign: int) -> None:
        bags, widths = self.bags, self.widths
        for values in rows:
            for bag, width in zip(bags, widths(values)):
                if width is not None:
                    bag.update(width, sign)

    def reset(self) -> None:
        """Re-derive the multisets from the left side's current rows."""
        self.bags = [_MaxBag() for _ in self.bags]
        rows = self.scan.full_rows()
        self.track([row for row in rows if all(keep(row) for keep in self.filters)], 1)

    def candidates(self, index, rows: Sequence[tuple]) -> list[tuple]:
        """Combined ``left + right`` candidate rows for right-delta *rows*."""
        tops = [self.bags[k].top() for k in self.bag_of]
        if None in tops:
            return []  # no left row has a non-null width, so none can match
        table = self.table
        columns = table.schema.names
        dimensions = list(zip(self.columns, self.positions, tops[::2], tops[1::2]))
        out: list[tuple] = []
        for right in rows:
            box = {}
            for column, position, w_lo, w_hi in dimensions:
                v = right[position]
                if v is None:
                    break
                pad = 4 * math.ulp(abs(v) + abs(w_lo) + abs(w_hi))
                box[column] = (v - w_hi - pad, v + w_lo + pad)
            else:
                for row in map(table.get, index.range_search([box[c] for c in index.columns])):
                    values = tuple(row[c] for c in columns)
                    if all(keep(values) for keep in self.filters):
                        out.append(values + right)
        return out


class DeltaJoinOp(DeltaOperator):
    """Incremental join via the bilinear delta rule.

    With ``Anew = Aold + ΔA`` and ``Bnew = Bold + ΔB`` over signed
    multisets::

        Δ(A ⋈ B) = ΔA ⋈ Bnew  +  Anew ⋈ ΔB  −  ΔA ⋈ ΔB

    A term that needs a side's current state fetches only the rows the
    opposite delta can meet, so a refresh costs O(|Δ| · candidates), not
    O(|Δ| · |side|).  :attr:`paths` records each term's path on the latest
    refresh: ``key`` (:meth:`DeltaOperator.lookup` of the keys the delta
    names), ``index`` (the band join's ``ΔA ⋈ Bnew`` through
    :class:`BandIndexProbe`), ``inverse-index`` (its ``Anew ⋈ ΔB`` through
    :class:`InverseBandProbe`) or ``scan`` (the whole side, hashed).
    :attr:`join_candidates` / :attr:`join_rows` count the pairs examined
    and the rows emitted.  Without keys every pair is a candidate and
    ``residual`` carries the whole join condition — this is how cross
    joins and the Figure-2 band-join shape are maintained.

    ``how="left"`` additionally maintains the null-padded rows of a left
    outer join.  The outer part is *non*-monotonic — an insert on the right
    retracts a padded row — so the delta adds the padding correction::

        Δpad = Σ_{a ∈ Anew} ([m_new(a)=0] − [m_old(a)=0]) · pad(a)
             + Σ_{a ∈ ΔA} sign(a) · [m_old(a)=0] · pad(a)

    where ``m(a)`` counts a row's surviving matches (key equality plus
    residual, mirroring the row path's ``matched`` flag) and ``m_old`` is
    recovered as ``m_new − Δm`` from the right-side delta — no extra state.
    Only left rows whose key the right delta names can have ``Δm ≠ 0``.
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
        self._keep = (
            None if residual is None else _row_function(self.names, [residual], guard=True)
        )
        #: Per side: its join key of a row, and its by-key fetch (when every
        #: key is a bare column of a side that can fetch by it).
        self._key_of = (
            _row_function(left.names, self.left_keys),
            _row_function(right.names, self.right_keys),
        )
        self._fetch = tuple(
            side.lookup(column_positions(side.names, keys) or ())
            for side, keys in ((left, self.left_keys), (right, self.right_keys))
        )
        self._bounds = self._inverse = None
        if band_probe is not None:
            self._bounds = _row_function(
                left.names, [e for _, low, high in band_probe.dimensions for e in (low, high)]
            )
            self._inverse = band_probe.inverse
        self.paths: dict[str, str] = {}
        self.join_candidates = 0
        self.join_rows = 0

    # -- key / residual evaluation ---------------------------------------------------

    @staticmethod
    def _keys(key_of: Callable[[tuple], tuple], rows: Sequence[tuple]) -> list[tuple | None]:
        """The join key of each row; ``None`` marks a null key (never
        matches, mirroring the hash-join paths)."""
        return [None if None in key else key for key in map(key_of, rows)]

    def _surviving(self, candidates: list[tuple]) -> list[tuple]:
        """Filter candidate combined rows through the residual predicate."""
        self.join_candidates += len(candidates)
        if self._keep is None:
            return candidates
        return list(filter(self._keep, candidates))

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

    def _side(
        self, term: str, side: int, keys: Sequence[tuple | None]
    ) -> tuple[list[tuple], list[tuple | None]]:
        """The current rows of child *side* that rows with join *keys* can
        meet, with their keys: fetched by key when it can, else all rows."""
        fetch = self._fetch[side]
        if fetch is None:
            self.paths[term] = "scan"
            rows = self.children[side].full_rows()
            return rows, self._keys(self._key_of[side], rows)
        self.paths[term] = "key"
        rows: list[tuple] = []
        row_keys: list[tuple | None] = []
        for key in dict.fromkeys(keys):
            if key is not None:
                fetched = fetch(key)
                rows += fetched
                row_keys += [key] * len(fetched)
        return rows, row_keys

    def _band_bounds(
        self, rows: Sequence[tuple]
    ) -> tuple[list[tuple[tuple, dict[str, tuple[float, float]]]], int, float, int]:
        """Evaluate band-probe bounds for delta rows.

        Returns the usable ``(values, bounds)`` pairs plus the probe/width
        statistics the advisor consumes — the one place those numbers are
        computed, whether the refresh ends up on the index or the hash
        fallback path.  A row with a null or inverted bound cannot match.
        """
        columns = [column for column, _, _ in self.band_probe.dimensions]
        pairs: list[tuple[tuple, dict[str, tuple[float, float]]]] = []
        width_sum = 0.0
        for values in rows:
            flat = self._bounds(values)
            bounds: dict[str, tuple[float, float]] = {}
            for column, low, high in zip(columns, flat[::2], flat[1::2]):
                if low is None or high is None or high < low:
                    break
                bounds[column] = (float(low), float(high))
            else:
                pairs.append((values, bounds))
                for low, high in bounds.values():
                    width_sum += high - low
        return pairs, len(pairs), width_sum, len(pairs) * len(columns)

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
        self.paths = {}
        if dl.is_empty() and dr.is_empty():
            return DeltaBatch.empty(self.names)
        if self._inverse is not None:
            self._inverse.track(dl.removed, -1)
            self._inverse.track(dl.added, 1)
        added: list[tuple] = []
        removed: list[tuple] = []
        padded = self.how == "left"

        left_key, right_key = self._key_of
        dl_add_keys = self._keys(left_key, dl.added)
        dl_rem_keys = self._keys(left_key, dl.removed)
        dr_add_keys = self._keys(right_key, dr.added)
        dr_rem_keys = self._keys(right_key, dr.removed)
        dr_add_hash = self._hash(dr.added, dr_add_keys)
        dr_rem_hash = self._hash(dr.removed, dr_rem_keys)

        # ΔA ⋈ Bnew — the padding terms also count Bnew matches of the
        # left rows the right delta names.
        band_index = None
        if self.band_probe is not None and not dl.is_empty():
            band_index = self.band_probe.find_index()
        b_hash: dict[tuple, list[tuple]] | None = None
        if band_index is not None:
            self.paths["ΔA⋈B"] = "index"
            self._probe_band(band_index, dl.added, added)
            self._probe_band(band_index, dl.removed, removed)
        elif not dl.is_empty() or (padded and not dr.is_empty()):
            wanted = dl_add_keys + dl_rem_keys
            if padded:
                wanted += dr_add_keys + dr_rem_keys
            b_hash = self._hash(*self._side("ΔA⋈B", 1, wanted))
            self._probe(dl.added, dl_add_keys, b_hash, added)
            self._probe(dl.removed, dl_rem_keys, b_hash, removed)
            if self.band_probe is not None and self.band_probe.advisor_hook is not None:
                self._record_band_activity(dl)
        # Anew ⋈ ΔB
        a_rows: list[tuple] = []
        a_keys: list[tuple | None] = []
        if not dr.is_empty():
            inverse_index = None if self._inverse is None else self._inverse.find_index()
            if inverse_index is not None:
                self.paths["A⋈ΔB"] = "inverse-index"
                candidates = self._inverse.candidates
                added.extend(self._surviving(candidates(inverse_index, dr.added)))
                removed.extend(self._surviving(candidates(inverse_index, dr.removed)))
            else:
                a_rows, a_keys = self._side("A⋈ΔB", 0, dr_add_keys + dr_rem_keys)
                self._probe(a_rows, a_keys, dr_add_hash, added)
                self._probe(a_rows, a_keys, dr_rem_hash, removed)
        # − ΔA ⋈ ΔB (sign of each pair is the negated product of the sides')
        if not dl.is_empty() and not dr.is_empty():
            self._probe(dl.added, dl_add_keys, dr_add_hash, removed)
            self._probe(dl.added, dl_add_keys, dr_rem_hash, added)
            self._probe(dl.removed, dl_rem_keys, dr_add_hash, added)
            self._probe(dl.removed, dl_rem_keys, dr_rem_hash, removed)

        if padded:
            pad = self._null_pad

            def m_delta(values: tuple, key: tuple | None) -> int:
                return self._count_matches(values, key, dr_add_hash) - self._count_matches(
                    values, key, dr_rem_hash
                )

            # Padding term 1: current left rows whose surviving match count
            # crossed zero because of the right-side delta.
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
        result = DeltaBatch(self.names, added, removed).net()
        self.join_rows += len(result)
        return result

    def rebuild(self) -> None:
        super().rebuild()
        if self._inverse is not None:
            self._inverse.reset()

    def label(self) -> str:
        if not self.left_keys:
            cond = "cross" if self.residual is None else f"on={self.residual!r}"
            text = f"DeltaJoin({self.how}, {cond})"
        else:
            keys = ", ".join(
                f"{l!r}={r!r}" for l, r in zip(self.left_keys, self.right_keys)
            )
            extra = "" if self.residual is None else f", residual={self.residual!r}"
            text = f"DeltaJoin({self.how}, {keys}{extra})"
        if not self.paths:
            return text
        return f"{text} [{', '.join(f'{t}: {p}' for t, p in self.paths.items())}]"


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
    per-group value multiset — never from the base table.  The maintained
    output serves :meth:`full_rows` and per-group :meth:`lookup`.
    """

    stateful = True

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
        self._fast_specs = [
            i for i, spec in enumerate(self.aggregates) if spec.func in _FAST_AGGS
        ]
        self._groups: dict[tuple, _GroupState] = {}
        self._out: dict[tuple, tuple] = {}
        #: Row → the argument value of every aggregate (``count(*)`` counts 1).
        self._args = _row_function(
            child.names,
            [Literal(1) if spec.argument is None else spec.argument for spec in aggregates],
        )

    # -- state maintenance -------------------------------------------------------------

    def _process_rows(
        self, rows: Sequence[tuple], sign: int, dirty: dict[tuple, tuple | None] | None
    ) -> None:
        """Fold one delta side (or, with ``dirty=None``, a full rebuild pass)
        into the group states."""
        indices = self.group_indices
        args_of = self._args
        for values in rows:
            key = tuple(values[i] for i in indices)
            if dirty is not None and key not in dirty:
                dirty[key] = self._out.get(key)
            self._apply(key, args_of(values), sign)

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

    def release(self) -> None:
        super().release()
        self._groups.clear()
        self._out.clear()

    def full_rows(self) -> list[tuple]:
        return list(self._out.values())

    def lookup(self, positions: tuple[int, ...]) -> Callable[[tuple], list[tuple]] | None:
        """Fetch one group's output row by its group columns."""
        if not positions or positions != tuple(range(len(self.group_names))):
            return None
        out = self._out
        return lambda key: [out[key]] if key in out else []

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


#: The churn guard: a refresh whose netted change exceeds this share of the
#: referenced rows (and :data:`CHURN_FLOOR` signed rows) rebuilds instead of
#: maintaining, because maintenance would cost more than re-execution.
CHURN_THRESHOLD = 0.3
CHURN_FLOOR = 64
#: Consecutive guard trips after which a view is suspended.
SUSPEND_AFTER = 3


class IncrementalView:
    """A materialized query result maintained from table deltas.

    The cache key is the referenced tables' version vector:

    * versions unchanged → serve the cached multiset (no scan at all),
    * all deltas available → propagate them through the operator tree and
      patch the multiset (work proportional to the churn),
    * otherwise → rebuild everything from a full execution.

    Results are handed out as fresh row dicts on every call, so callers may
    mutate them freely, exactly like the row and batch paths.

    A *churn guard* bounds the delta path, and is the engine's per-tick
    choice between delta refresh and re-execution (Section 4.1: a game
    looks different exploring than fighting, and rarely flips between the
    two).  When the pending change exceeds :data:`CHURN_THRESHOLD` of the
    referenced rows the view rebuilds instead of maintaining; after
    :data:`SUSPEND_AFTER` *consecutive* trips it is **suspended**:
    :meth:`refresh` returns ``None`` and the caller serves the query's
    physical (kernel) plan.  A suspended view holds no maintained state,
    and a suspended refresh costs O(referenced tables): it reads the
    tables' version advance since the previous call, which upper-bounds
    the mutations in between, and **resumes** the view — one full
    rebuild, then delta refreshes again — once that bound is under the
    guard.  Version advance also counts writes that change nothing, so a
    view whose tables are rewritten in full every tick (a health rule
    applying zero damage to every unit) stays suspended.

    ``state`` is ``"live"``, ``"suspended"`` or ``"dropped"`` — the last set
    by :meth:`drop` when a refresh raised, after which the view serves
    nothing.
    """

    def __init__(self, root: DeltaOperator, tables: Mapping[str, Table], names: Sequence[str]):
        self.root = root
        self.tables = dict(tables)
        self.names = tuple(names)
        self.state = "live"
        self.drop_error: Exception | None = None
        self._synced: dict[str, int] | None = None
        self._counts: dict[tuple, int] = {}
        self._materialized: list[dict[str, Any]] | None = None
        self._consecutive_trips = 0
        self.full_refreshes = 0
        self.delta_refreshes = 0
        self.noop_hits = 0
        self.guard_trips = 0
        self.suspensions = 0
        self.resumes = 0

    # -- refresh ------------------------------------------------------------------------

    def refresh(self) -> list[dict[str, Any]] | None:
        """The current result, or ``None`` while the view is not live."""
        if self.state == "dropped":
            return None
        current = {name: table.version for name, table in self.tables.items()}
        if self._synced is None:
            self._full_refresh()
        elif self.state == "suspended":
            self._maybe_resume(current)
        elif current != self._synced:
            self._refresh_changed()
        else:
            self.noop_hits += 1
            self._consecutive_trips = 0
        self._synced = current
        return self._materialize() if self.state == "live" else None

    def drop(self, error: Exception) -> None:
        """Give the view up for good: *error* escaped a refresh."""
        self.state = "dropped"
        self.drop_error = error
        self._release()

    def _release(self) -> None:
        """Free the maintained state: a view that does not serve holds none."""
        self.root.release()
        self._counts = {}
        self._materialized = None

    def _churn_limit(self) -> float:
        return max(CHURN_FLOOR, CHURN_THRESHOLD * sum(map(len, self.tables.values())))

    def _maybe_resume(self, current: Mapping[str, int]) -> None:
        advance = sum(current[name] - self._synced[name] for name in current)
        # A mutation nets to at most two signed rows (an update's old and new).
        if 2 * advance > self._churn_limit():
            return
        self.state = "live"
        self.resumes += 1
        self._consecutive_trips = 0
        self._full_refresh()

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
        if net_churn > self._churn_limit():
            self.guard_trips += 1
            self._consecutive_trips += 1
            if self._consecutive_trips < SUSPEND_AFTER:
                self._full_refresh()
                return
            self.state = "suspended"
            self.suspensions += 1
            self._release()
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

    def stats(self) -> dict[str, Any]:
        """The state and refresh counters, plus the work of every delta join
        summed: ``join_candidates`` pairs examined and ``join_rows`` rows
        emitted.  A dropped view adds its error's class (``reason``) and
        ``message``."""
        joins = [op for op in self.root.walk() if isinstance(op, DeltaJoinOp)]
        stats: dict[str, Any] = {
            "state": self.state,
            "full_refreshes": self.full_refreshes,
            "delta_refreshes": self.delta_refreshes,
            "noop_hits": self.noop_hits,
            "guard_trips": self.guard_trips,
            "suspensions": self.suspensions,
            "resumes": self.resumes,
            "cached_rows": sum(self._counts.values()),
            "join_candidates": sum(op.join_candidates for op in joins),
            "join_rows": sum(op.join_rows for op in joins),
        }
        if self.drop_error is not None:
            stats.update(reason=type(self.drop_error).__name__, message=str(self.drop_error))
        return stats

    def explain(self) -> str:
        return self.root.explain()
