"""Index structures for the main-memory engine.

All indexes implement the :class:`repro.engine.table.TableIndex` protocol
(insert/delete/update notifications plus ``range_search``), so physical
operators and the planner can treat them interchangeably:

* :class:`SortedIndex` — one-dimensional range scans.
* :class:`GridIndex` — uniform spatial grid, O(1) maintenance for
  continuously moving objects.
* :class:`RangeTreeIndex` — the paper's orthogonal range tree with
  Θ(n log^{d-1} n) space (Section 4.2).
"""

from repro.engine.indexes.grid_index import GridIndex
from repro.engine.indexes.range_tree import RangeTreeIndex
from repro.engine.indexes.sorted_index import SortedIndex

__all__ = ["SortedIndex", "GridIndex", "RangeTreeIndex"]
