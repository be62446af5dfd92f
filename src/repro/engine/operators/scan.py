"""Scan operators: full table scans, inline values and index range scans.

Row-ownership contract: every operator in this module is a *source* — it
reads the table's stored row dicts (shared references, via
:meth:`Table.rows` / :meth:`Table.get`) and emits a **fresh copy** of each
row (``_qualify_row`` always copies).  Downstream operators may therefore
mutate or adopt the dicts they receive without corrupting the table.
Pass-through operators (filter, union) preserve that ownership;
projection, join and aggregation build new dicts of their own.
The batch path gives the same guarantee once, in bulk: values are copied
into column lists by :meth:`Table.to_batch` and rows materialized fresh at
the :class:`~repro.engine.operators.batch_ops.BatchBridgeOp` boundary.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema
from repro.engine.table import Table

__all__ = ["TableScanOp", "ValuesOp", "IndexRangeScanOp"]


def _qualify_row(row: Mapping[str, Any], alias: str | None) -> dict[str, Any]:
    """Copy *row*, prefixing keys with ``alias.`` if requested.

    The copy is not optional: *row* is a shared reference into the table's
    row store, and the returned dict is handed downstream as consumer-owned.
    """
    if not alias:
        return dict(row)
    return {f"{alias}.{k.split('.')[-1]}": v for k, v in row.items()}


class TableScanOp(PhysicalOperator):
    """Sequentially scan all rows of a base table."""

    def __init__(self, table: Table, schema: Schema, alias: str | None = None):
        super().__init__(schema)
        self.table = table
        self.alias = alias

    def _produce(self) -> Iterator[dict[str, Any]]:
        for row in self.table.rows():
            yield _qualify_row(row, self.alias)

    def label(self) -> str:
        if self.alias and self.alias != self.table.name:
            return f"TableScan({self.table.name} AS {self.alias})"
        return f"TableScan({self.table.name})"


class ValuesOp(PhysicalOperator):
    """Produce a fixed, in-plan list of rows."""

    def __init__(self, schema: Schema, rows: Sequence[Mapping[str, Any]]):
        super().__init__(schema)
        self._rows = [dict(r) for r in rows]

    def _produce(self) -> Iterator[dict[str, Any]]:
        for row in self._rows:
            yield dict(row)

    def label(self) -> str:
        return f"Values({len(self._rows)} rows)"


class IndexRangeScanOp(PhysicalOperator):
    """Fetch rows whose indexed column(s) fall inside per-dimension bounds.

    ``bounds`` is a sequence of ``(low, high)`` pairs, one per index column;
    ``None`` means unbounded on that side.
    """

    def __init__(
        self,
        table: Table,
        schema: Schema,
        index_name: str,
        bounds: Sequence[tuple[Any, Any]],
        alias: str | None = None,
    ):
        super().__init__(schema)
        self.table = table
        self.index_name = index_name
        self.bounds = list(bounds)
        self.alias = alias

    def _produce(self) -> Iterator[dict[str, Any]]:
        index = self.table.index(self.index_name)
        for rowid in index.range_search(self.bounds):
            yield _qualify_row(self.table.get(rowid), self.alias)

    def label(self) -> str:
        return f"IndexRangeScan({self.table.name}.{self.index_name} {self.bounds})"
