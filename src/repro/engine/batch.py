"""Columnar batches for the compiled-kernel execution path.

The row-at-a-time iterator model (:mod:`repro.engine.operators.base`)
materializes one dict per row per operator.  For the tick loop — where the
same queries run every tick over memory-resident tables (Section 4.1 of the
paper) — that dict churn dominates the per-tick cost.  A
:class:`ColumnBatch` instead stores a relation as parallel Python lists,
one per column, plus a *selection vector* of surviving physical indices:

* alias qualification renames columns while *sharing* the value lists,
* compiled kernels (:mod:`repro.engine.compile.kernels`) read input columns
  by index and build their output columns in one fused loop, instead of
  building a dict per intermediate row.

Row dicts are only materialized once, at the boundary back to the caller
(:meth:`ColumnBatch.to_rows`, used by
:class:`~repro.engine.operators.batch_ops.BatchBridgeOp`).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Mapping, Sequence

__all__ = ["ColumnBatch", "DeltaBatch"]


class DeltaBatch:
    """A signed row-set delta: rows added to and removed from a relation.

    The incremental execution path (:mod:`repro.engine.operators.incremental`)
    represents the change of any relation between two table versions as two
    row multisets: ``added`` and ``removed``.  An *updated* row is simply
    its old version in ``removed`` plus its new version in ``added`` — the
    uniform representation that lets filters, projections and joins
    propagate deltas without caring which mutation produced them.

    Rows are stored as value *tuples* in ``names`` order (hashable, so they
    can key the materialized-view counters and hash-join tables), not as
    dicts; :meth:`row_dicts` converts when an expression needs a mapping.

    ``netted`` marks a delta whose two sides are known disjoint, letting
    :meth:`net` skip its counting pass when operators chain.
    """

    __slots__ = ("names", "added", "removed", "netted")

    def __init__(
        self,
        names: Sequence[str],
        added: list[tuple] | None = None,
        removed: list[tuple] | None = None,
        *,
        netted: bool = False,
    ):
        self.names = tuple(names)
        self.added = added if added is not None else []
        self.removed = removed if removed is not None else []
        self.netted = netted

    @classmethod
    def empty(cls, names: Sequence[str]) -> "DeltaBatch":
        return cls(names, netted=True)

    @classmethod
    def from_rows(
        cls,
        names: Sequence[str],
        added: Iterable[Mapping[str, Any]],
        removed: Iterable[Mapping[str, Any]],
    ) -> "DeltaBatch":
        """Build a delta from row mappings (values gathered in ``names`` order)."""
        names = tuple(names)
        return cls(
            names,
            [tuple(row[name] for name in names) for row in added],
            [tuple(row[name] for name in names) for row in removed],
        )

    def __len__(self) -> int:
        """Total number of signed rows (added plus removed)."""
        return len(self.added) + len(self.removed)

    def __repr__(self) -> str:
        return f"DeltaBatch(+{len(self.added)}, -{len(self.removed)})"

    def is_empty(self) -> bool:
        return not self.added and not self.removed

    def row_dicts(self, rows: Sequence[tuple]) -> list[dict[str, Any]]:
        """Materialize value tuples as row dicts (for expression evaluation)."""
        names = self.names
        return [dict(zip(names, values)) for values in rows]

    def net(self) -> "DeltaBatch":
        """Cancel rows appearing on both sides (e.g. a no-op update).

        Keeps deltas minimal as they propagate: an update that does not
        change any projected column nets out to nothing, so downstream
        operators and the view counters do no work for it.
        """
        if self.netted or not self.added or not self.removed:
            self.netted = True
            return self
        counts: Counter = Counter(self.added)
        counts.subtract(self.removed)
        added: list[tuple] = []
        removed: list[tuple] = []
        for values, count in counts.items():
            if count > 0:
                added.extend([values] * count)
            elif count < 0:
                removed.extend([values] * (-count))
        return DeltaBatch(self.names, added, removed, netted=True)


class ColumnBatch:
    """A relation stored as parallel per-column lists plus a selection vector.

    ``names`` fixes the column order (it matches the row-dict key order the
    equivalent row-at-a-time plan would produce), ``columns`` maps each name
    to a list of *all* physical values, and ``selection`` is either ``None``
    (every physical index is live) or a list of live indices in output
    order.

    Batches are immutable by convention: operators never mutate the value
    lists of an input batch, they build new batches (possibly sharing value
    lists, e.g. after a filter or a rename).
    """

    __slots__ = ("names", "columns", "selection", "_row_count")

    def __init__(
        self,
        names: Sequence[str],
        columns: Mapping[str, list],
        selection: list[int] | None = None,
    ):
        self.names = tuple(names)
        self.columns = dict(columns)
        self.selection = selection
        self._row_count = len(self.columns[self.names[0]]) if self.names else 0

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_rows(cls, names: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> "ColumnBatch":
        """Build a batch from row mappings (one pass, values copied into lists)."""
        names = tuple(names)
        columns: dict[str, list] = {name: [] for name in names}
        appenders = [columns[name].append for name in names]
        for row in rows:
            for name, append in zip(names, appenders):
                append(row.get(name))
        return cls(names, columns)

    # -- introspection ----------------------------------------------------------------

    def __len__(self) -> int:
        """Number of *selected* (live) rows."""
        if self.selection is not None:
            return len(self.selection)
        return self._row_count

    def __repr__(self) -> str:
        return f"ColumnBatch({list(self.names)}, rows={len(self)})"

    def indices(self) -> Sequence[int]:
        """The live physical indices, in output order."""
        if self.selection is not None:
            return self.selection
        return range(self._row_count)

    def column(self, name: str) -> list:
        """The full (unselected) value list of one column."""
        return self.columns[name]

    # -- derivation -------------------------------------------------------------------

    def with_selection(self, selection: list[int]) -> "ColumnBatch":
        """A batch sharing this batch's value lists under a new selection."""
        return ColumnBatch(self.names, self.columns, selection)

    def qualify(self, alias: str) -> "ColumnBatch":
        """Rename every column to ``alias.unqualified`` — shares value lists.

        Mirrors ``_qualify_row`` in :mod:`repro.engine.operators.scan`, but
        costs O(columns) instead of O(rows × columns).
        """
        renamed = [f"{alias}.{name.split('.')[-1]}" for name in self.names]
        columns = {new: self.columns[old] for new, old in zip(renamed, self.names)}
        return ColumnBatch(renamed, columns, self.selection)

    def compact(self) -> "ColumnBatch":
        """Gather the selected values into fresh, dense lists (selection = all)."""
        if self.selection is None:
            return self
        sel = self.selection
        columns = {name: [col[i] for i in sel] for name, col in self.columns.items()}
        return ColumnBatch(self.names, columns)

    # -- boundary back to rows ----------------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        """Materialize the selected rows as fresh dicts (caller owns them)."""
        names = self.names
        cols = [self.columns[name] for name in names]
        if self.selection is None:
            return [
                dict(zip(names, values))
                for values in zip(*cols)
            ] if names else []
        return [{name: col[i] for name, col in zip(names, cols)} for i in self.selection]
