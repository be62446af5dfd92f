"""Multi-dimensional orthogonal range tree.

Section 4.2 of the paper: "SGL makes extensive use of large
multi-dimensional orthogonal range tree indices.  Each of these trees takes
Θ(n log^{d-1} n) space … a tree with 100,000 entries of 16 bytes each takes
about 2 GB."  This module implements the classic layered structure from
de Berg et al. (the paper's reference [3]):

* a balanced binary tree over the first coordinate,
* every internal node stores an *associated structure* — a (d−1)-dimensional
  range tree over the points in its subtree — with the last dimension stored
  as a sorted array,
* an orthogonal range query descends to the split node, then reports
  canonical subtrees via their associated structures, giving
  O(log^d n + k) query time.

Because game data changes at almost every tick, the index is rebuilt lazily:
mutations mark it dirty and the next query rebuilds from the owning table.
:meth:`RangeTreeIndex.node_count` and :meth:`RangeTreeIndex.estimated_bytes`
expose the storage blow-up measured in experiment E6.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Mapping, Sequence

from repro.engine.table import RowId, Table, TableIndex

__all__ = ["RangeTreeIndex", "RangeTreeNode"]


class _SortedLeafArray:
    """The 1-dimensional base case: a sorted array of (value, payload)."""

    __slots__ = ("entries",)

    def __init__(self, points: Sequence[tuple[tuple[float, ...], Any]], dim: int):
        self.entries = sorted(((p[0][dim], p[1]) for p in points), key=lambda e: e[0])

    def query(self, low: float | None, high: float | None) -> Iterator[Any]:
        values = [e[0] for e in self.entries]
        start = 0 if low is None else bisect.bisect_left(values, low)
        for value, payload in self.entries[start:]:
            if high is not None and value > high:
                break
            yield payload

    def node_count(self) -> int:
        return len(self.entries)


class RangeTreeNode:
    """A node of the primary tree over one coordinate."""

    __slots__ = ("value", "left", "right", "assoc", "point", "payload")

    def __init__(self, value: float):
        self.value = value
        self.left: "RangeTreeNode | None" = None
        self.right: "RangeTreeNode | None" = None
        #: Associated (d-1)-dimensional structure over this subtree's points.
        self.assoc: "_Tree | _SortedLeafArray | None" = None
        #: Set only at leaves: the full point and its payload.
        self.point: tuple[float, ...] | None = None
        self.payload: Any = None


class _Tree:
    """A d-dimensional layered range tree over a fixed point set."""

    def __init__(self, points: Sequence[tuple[tuple[float, ...], Any]], dim: int, dims: int):
        self.dim = dim
        self.dims = dims
        self.root = self._build(sorted(points, key=lambda p: p[0][dim]), dim, dims)

    def _build(
        self,
        points: Sequence[tuple[tuple[float, ...], Any]],
        dim: int,
        dims: int,
    ) -> RangeTreeNode | None:
        if not points:
            return None
        if len(points) == 1:
            point, payload = points[0]
            node = RangeTreeNode(point[dim])
            node.point = point
            node.payload = payload
            node.assoc = self._make_assoc(points, dim, dims)
            return node
        mid = (len(points) - 1) // 2
        node = RangeTreeNode(points[mid][0][dim])
        node.left = self._build(points[: mid + 1], dim, dims)
        node.right = self._build(points[mid + 1 :], dim, dims)
        node.assoc = self._make_assoc(points, dim, dims)
        return node

    @staticmethod
    def _make_assoc(
        points: Sequence[tuple[tuple[float, ...], Any]], dim: int, dims: int
    ) -> "_Tree | _SortedLeafArray":
        if dim + 1 == dims - 1:
            return _SortedLeafArray(points, dim + 1)
        if dim + 1 >= dims:
            return _SortedLeafArray(points, dim)
        return _Tree(points, dim + 1, dims)

    # -- queries ---------------------------------------------------------------------

    def query(self, bounds: Sequence[tuple[float | None, float | None]]) -> Iterator[Any]:
        low, high = bounds[self.dim]
        if self.root is None:
            return
        yield from self._query_node(self.root, low, high, bounds)

    def _query_assoc(self, node: RangeTreeNode, bounds) -> Iterator[Any]:
        assoc = node.assoc
        if isinstance(assoc, _SortedLeafArray):
            last_low, last_high = bounds[-1] if self.dim + 1 >= self.dims else bounds[self.dim + 1]
            yield from assoc.query(last_low, last_high)
        elif isinstance(assoc, _Tree):
            yield from assoc.query(bounds)

    def _leaf_matches(self, node: RangeTreeNode, bounds) -> bool:
        assert node.point is not None
        for value, (low, high) in zip(node.point, bounds):
            if low is not None and value < low:
                return False
            if high is not None and value > high:
                return False
        return True

    def _query_node(self, node: RangeTreeNode, low, high, bounds) -> Iterator[Any]:
        # Find the split node.
        split = node
        while split is not None and split.point is None:
            if high is not None and high < split.value:
                split = split.left
            elif low is not None and low > split.value:
                split = split.right
            else:
                break
        if split is None:
            return
        if split.point is not None:
            if self._leaf_matches(split, bounds):
                yield split.payload
            return
        # Walk the left spine reporting right subtrees.
        current = split.left
        while current is not None:
            if current.point is not None:
                if self._leaf_matches(current, bounds):
                    yield current.payload
                break
            if low is None or low <= current.value:
                if current.right is not None:
                    if current.right.point is not None:
                        if self._leaf_matches(current.right, bounds):
                            yield current.right.payload
                    else:
                        yield from self._query_assoc(current.right, bounds)
                current = current.left
            else:
                current = current.right
        # Walk the right spine reporting left subtrees.
        current = split.right
        while current is not None:
            if current.point is not None:
                if self._leaf_matches(current, bounds):
                    yield current.payload
                break
            if high is None or high > current.value:
                if current.left is not None:
                    if current.left.point is not None:
                        if self._leaf_matches(current.left, bounds):
                            yield current.left.payload
                    else:
                        yield from self._query_assoc(current.left, bounds)
                current = current.right
            else:
                current = current.left

    # -- accounting ------------------------------------------------------------------

    def node_count(self) -> int:
        return self._count(self.root)

    def _count(self, node: RangeTreeNode | None) -> int:
        if node is None:
            return 0
        total = 1
        if isinstance(node.assoc, _SortedLeafArray):
            total += node.assoc.node_count()
        elif isinstance(node.assoc, _Tree):
            total += node.assoc.node_count()
        total += self._count(node.left)
        total += self._count(node.right)
        return total


class RangeTreeIndex(TableIndex):
    """Orthogonal range tree over *d* numeric columns of a table.

    The structure is static; any table mutation marks it dirty and the next
    query triggers a full rebuild (O(n log^{d-1} n)).  This matches how the
    paper's engine uses the index — rebuilt/refreshed per tick over data
    that almost all changes anyway — and keeps deletions simple.
    """

    def __init__(self, columns: Sequence[str]):
        if not columns:
            raise ValueError("range tree needs at least one column")
        self.columns = tuple(columns)
        self._table: Table | None = None
        self._tree: _Tree | None = None
        self._dirty = True
        self._size = 0

    # -- TableIndex protocol ----------------------------------------------------------

    def on_insert(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        self._dirty = True

    def on_delete(self, rowid: RowId, row: Mapping[str, Any]) -> None:
        self._dirty = True

    def on_update(self, rowid: RowId, old: Mapping[str, Any], new: Mapping[str, Any]) -> None:
        self._dirty = True

    def rebuild(self, table: Table) -> None:
        self.columns = tuple(table.schema.resolve(c) for c in self.columns)
        self._table = table
        self._dirty = True

    # -- building -----------------------------------------------------------------------

    def _ensure_built(self) -> None:
        if not self._dirty or self._table is None:
            return
        points: list[tuple[tuple[float, ...], RowId]] = []
        for rowid in self._table.row_ids():
            row = self._table.get(rowid)
            coords = []
            ok = True
            for column in self.columns:
                value = row[column]
                if value is None:
                    ok = False
                    break
                coords.append(float(value))
            if ok:
                points.append((tuple(coords), rowid))
        self._size = len(points)
        if len(self.columns) == 1:
            self._tree = _Tree(points, 0, 1)
        else:
            self._tree = _Tree(points, 0, len(self.columns))
        self._dirty = False

    def build_from_points(self, points: Sequence[tuple[Sequence[float], Any]]) -> None:
        """Build directly from ``(coords, payload)`` pairs (no table needed).

        Used by experiment E6.
        """
        normalized = [(tuple(float(c) for c in coords), payload) for coords, payload in points]
        self._size = len(normalized)
        dims = len(self.columns)
        self._tree = _Tree(normalized, 0, dims if dims > 1 else 1)
        self._dirty = False
        self._table = None

    # -- queries --------------------------------------------------------------------------

    def range_search(self, bounds: Sequence[tuple[Any, Any]]) -> Iterator[RowId]:
        self._ensure_built()
        if self._tree is None or self._size == 0:
            return
        normalized = []
        for low, high in bounds:
            normalized.append(
                (None if low is None else float(low), None if high is None else float(high))
            )
        # Pad missing trailing dimensions with unbounded ranges.
        while len(normalized) < len(self.columns):
            normalized.append((None, None))
        yield from self._tree.query(normalized)

    # -- accounting -------------------------------------------------------------------------

    def __len__(self) -> int:
        self._ensure_built()
        return self._size

    def node_count(self) -> int:
        """Total number of primary + associated structure entries."""
        self._ensure_built()
        return 0 if self._tree is None else self._tree.node_count()

    def estimated_bytes(self, entry_size: int = 16) -> int:
        """Estimate memory use assuming *entry_size* bytes per stored entry.

        The paper's back-of-envelope (100,000 entries × 16 bytes ≈ 2 GB for
        a high-dimensional tree) corresponds to ``node_count() * entry_size``.
        """
        return self.node_count() * entry_size
