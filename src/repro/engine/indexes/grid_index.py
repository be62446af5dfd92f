"""Uniform grid spatial index over d numeric columns.

Game objects live in a bounded world, move continuously, and are queried
with axis-aligned range predicates ("units within range r of me").  A
uniform grid with cell size close to the typical query radius answers such
queries by inspecting a handful of cells, and updates in O(1) when an
object moves between cells — matching the paper's observation that "most
NPCs will move continuously to a nearby location" (Section 4.1).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.table import RowId, Table, TableIndex

__all__ = ["GridIndex"]


class GridIndex(TableIndex):
    """Buckets rows into axis-aligned grid cells of a fixed size."""

    def __init__(self, columns: Sequence[str], cell_size: float = 16.0):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.columns = tuple(columns)
        self.cell_size = float(cell_size)
        self._cells: dict[tuple[int, ...], set[RowId]] = defaultdict(set)
        self._positions: dict[RowId, tuple[int, ...]] = {}

    def _cell_of(self, row: Mapping[str, Any]) -> tuple[int, ...] | None:
        coords = []
        for column in self.columns:
            value = row[column]
            if value is None:
                return None
            coords.append(int(float(value) // self.cell_size))
        return tuple(coords)

    def on_insert(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        cell = self._cell_of(row)
        if cell is None:
            return
        self._cells[cell].add(rowid)
        self._positions[rowid] = cell

    def on_delete(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        cell = self._positions.pop(rowid, None)
        if cell is None:
            return
        bucket = self._cells.get(cell)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._cells[cell]

    def on_update(self, rowid: RowId, old: Mapping[str, Any], new: Mapping[str, Any]) -> None:
        old_cell = self._positions.get(rowid)
        new_cell = self._cell_of(new)
        if old_cell == new_cell:
            return
        self.on_delete(rowid, old)
        self.on_insert(rowid, new)

    def rebuild(self, table: Table) -> None:
        self.columns = tuple(table.schema.resolve(c) for c in self.columns)
        self._cells = defaultdict(set)
        self._positions = {}
        for rowid in table.row_ids():
            self.on_insert(rowid, table.get(rowid))

    def lookup(self, key: Any) -> Iterator[RowId]:
        """Equality lookup: return rows in the cell containing *key* whose
        coordinates match exactly."""
        if not isinstance(key, tuple):
            key = (key,)
        bounds = [(k, k) for k in key]
        yield from self.range_search(bounds)

    def range_search(self, bounds: Sequence[tuple[Any, Any]]) -> list[RowId]:
        """Row ids inside the axis-aligned box given by *bounds*.

        Unbounded sides fall back to the observed cell extent in that
        dimension.  Candidate cells are enumerated row-major (last
        dimension fastest) and their contents returned in set order; rows
        near cell borders are included because callers re-check the exact
        predicate (the engine always applies a residual filter above an
        index scan).  Eager on purpose: band joins call this once per
        probe, and a list filled by ``extend`` costs a fraction of a
        generator resumed per row.
        """
        cells = self._cells
        if not cells:
            return []
        lows, highs = [], []
        for dim, (low, high) in enumerate(bounds):
            if low is None or high is None:
                # Only unbounded sides need the occupied extent; computing
                # it eagerly costs O(cells) per dimension per probe.
                dim_cells = [cell[dim] for cell in cells]
            low_cell = int(float(low) // self.cell_size) if low is not None else min(dim_cells)
            high_cell = int(float(high) // self.cell_size) if high is not None else max(dim_cells)
            lows.append(low_cell)
            highs.append(high_cell)
        box_cells = 1
        for lo, hi in zip(lows, highs):
            box_cells *= max(0, hi - lo + 1)
        out: list[RowId] = []
        if box_cells <= len(cells):
            # Enumerate the candidate cells of the query box directly.
            get = cells.get
            for cell in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
                bucket = get(cell)
                if bucket:
                    out.extend(bucket)
        else:
            # Query box larger than the populated area: scan populated cells.
            for cell, rowids in cells.items():
                if all(lo <= c <= hi for c, lo, hi in zip(cell, lows, highs)):
                    out.extend(rowids)
        return out

    def cell_count(self) -> int:
        return len(self._cells)

    def __len__(self) -> int:
        return len(self._positions)
