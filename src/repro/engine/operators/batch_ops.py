"""Batch (columnar) leaf operators and the batch → row bridge.

Compiled kernels (:mod:`repro.engine.compile.kernels`) do every filter,
projection, join and aggregate on the columnar path; the operators here
only feed them and hand their result back:

* :class:`BatchTableScanOp` / :class:`BatchValuesOp` expose a base table
  or an in-plan list of rows as a
  :class:`~repro.engine.batch.ColumnBatch` — the inputs of a kernel;
* :class:`BatchBridgeOp` is the boundary: a regular
  :class:`~repro.engine.operators.base.PhysicalOperator` that executes the
  batch subtree and materializes row dicts once, at the top, so everything
  above it (executor, plan cache, explain) is unchanged.

Output-ordering contract: a batch tree produces rows in exactly the order
the row-at-a-time plan would, so downstream order-sensitive consumers
(``first``/``last``/``collect`` aggregates) cannot tell the paths apart.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.batch import ColumnBatch
from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema
from repro.engine.table import Table

__all__ = [
    "BatchOperator",
    "BatchTableScanOp",
    "BatchValuesOp",
    "BatchBridgeOp",
]


class BatchOperator:
    """Base class for batch operators.

    ``names`` is the tuple of output column names — computed at plan time
    and identical to the keys of the row dicts the row-at-a-time plan
    would produce, which is what lets the kernel compiler resolve
    expressions statically before committing to the batch path.
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
