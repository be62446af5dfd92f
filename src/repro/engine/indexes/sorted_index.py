"""Sorted (one-dimensional) index supporting range scans."""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.table import RowId, Table, TableIndex

__all__ = ["SortedIndex"]


class SortedIndex(TableIndex):
    """Keeps ``(value, rowid)`` pairs sorted by value on a single column.

    Uses :mod:`bisect` for O(log n) positioning; inserts and deletes are
    O(n) due to the underlying list, which is acceptable for the workload
    sizes the engine targets and keeps the structure simple and cache
    friendly.
    """

    def __init__(self, column: str):
        self.columns = (column,)
        self._entries: list[tuple[Any, RowId]] = []

    @property
    def column(self) -> str:
        return self.columns[0]

    def on_insert(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        value = row[self.column]
        if value is None:
            return
        bisect.insort(self._entries, (value, rowid))

    def on_delete(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        value = row[self.column]
        if value is None:
            return
        idx = bisect.bisect_left(self._entries, (value, rowid))
        if idx < len(self._entries) and self._entries[idx] == (value, rowid):
            del self._entries[idx]

    def rebuild(self, table: Table) -> None:
        resolved = table.schema.resolve(self.columns[0])
        self.columns = (resolved,)
        self._entries = []
        for rowid in table.row_ids():
            value = table.get(rowid)[resolved]
            if value is not None:
                self._entries.append((value, rowid))
        self._entries.sort()

    def range_search(self, bounds: Sequence[tuple[Any, Any]]) -> Iterator[RowId]:
        """Yield row ids whose value lies within the (single) bound pair."""
        low, high = bounds[0]
        if low is None:
            start = 0
        else:
            start = bisect.bisect_left(self._entries, (low, -1))
        for value, rowid in self._entries[start:]:
            if high is not None and value > high:
                break
            yield rowid

    def min_value(self) -> Any:
        return self._entries[0][0] if self._entries else None

    def max_value(self) -> Any:
        return self._entries[-1][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)
