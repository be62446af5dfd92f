"""Adaptive physical design: the index advisor.

The SGL workload repeats the same queries every tick, so the engine can
watch them run and adjust the physical design they run against.
:class:`IndexAdvisor` creates a persistent index for a band-join shape
that stays hot and evicts it once the shape goes cold.

The other half of Section 4.1's adaptivity — switching a query between
delta maintenance and re-execution as the game moves between calm and
busy phases — is per-tick too, and lives in the churn guard of
:class:`~repro.engine.operators.incremental.IncrementalView`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.engine.catalog import Catalog
from repro.engine.errors import CatalogError, SchemaError
from repro.engine.indexes import GridIndex, SortedIndex
from repro.engine.table import Table

__all__ = ["IndexAdvisor", "grid_cell_size"]

#: Grid cell size used when neither a probe width nor a column span is known.
DEFAULT_GRID_CELL_SIZE = 16.0


def grid_cell_size(table: Table, columns: Sequence[str], observed_width: float | None) -> float:
    """Pick the cell size of an auto-created grid over *columns* of *table*.

    A grid answers a band probe by inspecting ~``ceil(width/cell + 1)^d``
    cells, so the sweet spot is a cell close to the typical probe width:
    an observed mean probe width wins outright.  Without one, spread
    ~``len(table)`` cells over the narrowest numeric span of the columns
    (≈ one row per cell), reading the spans from the rows; with fewer than
    two rows or no numeric span, :data:`DEFAULT_GRID_CELL_SIZE`.
    """
    if observed_width is not None and observed_width > 0:
        return float(observed_width)
    if len(table) <= 1:
        return DEFAULT_GRID_CELL_SIZE
    spans: list[float] = []
    for name in columns:
        values = [
            value
            for row in table.rows()
            if isinstance(value := row[name], (int, float)) and not isinstance(value, bool)
        ]
        if values and (span := float(max(values)) - float(min(values))) > 0:
            spans.append(span)
    if not spans:
        return DEFAULT_GRID_CELL_SIZE
    cells_per_dim = max(1.0, float(len(table)) ** (1.0 / len(columns)))
    return max(min(spans) / cells_per_dim, 1e-6)


@dataclass
class _BandJoinObservation:
    """Probe activity for one ``(table, probe columns)`` band-join shape.

    Hooks installed by the physical planner accumulate per-tick counters;
    :meth:`IndexAdvisor.end_tick` folds them into the hot streak and the
    EWMA probe width that sizes an auto-created grid's cells.
    """

    probes_this_tick: int = 0
    width_sum: float = 0.0
    width_count: int = 0
    hot_streak: int = 0
    last_active_tick: int = -1
    mean_width: float | None = None
    #: Largest per-execution average probe width ever observed.  The EWMA
    #: forgets spikes; halo sizing in the sharded engine must not, because
    #: a boundary strip narrower than the widest probe silently drops join
    #: partners.
    max_width: float = 0.0


class IndexAdvisor:
    """Auto-creates persistent indexes for band-join columns that stay hot.

    The planner emits an index-probing join only when the inner table has a
    registered range-capable index — but registering one by hand requires
    knowing the workload.  The advisor closes the loop: lowered band joins
    report their probe activity through hooks
    (:meth:`make_hook`), and once a ``(table, columns)`` shape has probed
    for ``create_after`` consecutive ticks on a large-enough table, the
    advisor creates a :class:`~repro.engine.indexes.SortedIndex` (one
    dimension) or :class:`~repro.engine.indexes.GridIndex` (cell size from
    :func:`grid_cell_size`) for it.  Indexes it
    created are evicted again after ``evict_after`` ticks without any
    probes — like a suspended :class:`IncrementalView`, the structure
    stops paying rent when the query stops running.

    ``end_tick`` returns ``True`` when the catalog shape changed so the
    caller (:class:`~repro.runtime.world.GameWorld`) can invalidate cached
    plans and let the next execution pick up the new index.
    """

    #: Name prefix of advisor-created indexes (also how tests find them).
    AUTO_INDEX_PREFIX = "auto_band_"

    def __init__(
        self,
        catalog: Catalog,
        create_after: int = 3,
        evict_after: int = 30,
        min_table_rows: int = 128,
    ):
        self.catalog = catalog
        self.create_after = create_after
        self.evict_after = evict_after
        self.min_table_rows = min_table_rows
        self._observations: dict[tuple[str, tuple[str, ...]], _BandJoinObservation] = {}
        self._created: dict[tuple[str, tuple[str, ...]], str] = {}
        self._tick = 0
        self.created_count = 0
        self.evicted_count = 0

    # -- recording ----------------------------------------------------------------------

    def make_hook(self, table_name: str, columns: tuple[str, ...]) -> Callable[[int, float, int], None]:
        """A stats hook for one band-join shape, installed on the lowered
        operator by the physical planner and called once per execution."""
        key = (table_name, tuple(columns))

        def hook(n_probes: int, width_sum: float, width_count: int) -> None:
            self.observe(key, n_probes, width_sum, width_count)

        return hook

    def observe(
        self, key: tuple[str, tuple[str, ...]], n_probes: int, width_sum: float, width_count: int
    ) -> None:
        obs = self._observations.setdefault(key, _BandJoinObservation())
        obs.probes_this_tick += n_probes
        obs.width_sum += width_sum
        obs.width_count += width_count
        if width_count:
            obs.max_width = max(obs.max_width, width_sum / width_count)

    # -- the per-tick decision ------------------------------------------------------------

    def end_tick(self) -> bool:
        """Fold this tick's observations; create/evict indexes.

        Returns ``True`` when an index was created or evicted (the caller
        should invalidate cached plans).
        """
        changed = False
        for key, obs in self._observations.items():
            if obs.probes_this_tick > 0:
                obs.hot_streak += 1
                obs.last_active_tick = self._tick
                if obs.width_count:
                    width = obs.width_sum / obs.width_count
                    obs.mean_width = (
                        width if obs.mean_width is None else 0.8 * obs.mean_width + 0.2 * width
                    )
            else:
                obs.hot_streak = 0
            obs.probes_this_tick = 0
            obs.width_sum = 0.0
            obs.width_count = 0
            if obs.hot_streak >= self.create_after and key not in self._created:
                changed = self._create_index(key, obs) or changed
        for key, index_name in list(self._created.items()):
            obs = self._observations.get(key)
            last_active = obs.last_active_tick if obs is not None else -1
            if self._tick - last_active > self.evict_after:
                table_name, _ = key
                try:
                    self.catalog.drop_index(table_name, index_name)
                except CatalogError:
                    pass  # table or index dropped by someone else
                del self._created[key]
                self.evicted_count += 1
                changed = True
        self._tick += 1
        return changed

    def _create_index(self, key: tuple[str, tuple[str, ...]], obs: _BandJoinObservation) -> bool:
        table_name, columns = key
        if not self.catalog.has_table(table_name):
            return False
        table = self.catalog.table(table_name)
        if len(table) < self.min_table_rows:
            return False
        try:
            resolved = tuple(table.schema.resolve(c.split(".")[-1]) for c in columns)
        except SchemaError:
            return False
        if table.find_index_covering(resolved) is not None:
            return False  # a usable (range-capable) index already exists
        if len(resolved) == 1:
            index = SortedIndex(resolved[0])
        else:
            index = GridIndex(resolved, cell_size=grid_cell_size(table, resolved, obs.mean_width))
        base_name = self.AUTO_INDEX_PREFIX + "_".join(c.split(".")[-1] for c in resolved)
        index_name = base_name
        suffix = 1
        while index_name in table.indexes:
            index_name = f"{base_name}_{suffix}"
            suffix += 1
        self.catalog.create_index(table_name, index_name, index)
        self._created[key] = index_name
        self.created_count += 1
        return True

    # -- introspection --------------------------------------------------------------------

    def created_indexes(self) -> dict[str, list[str]]:
        """Advisor-created indexes per table (tests and debug tooling)."""
        out: dict[str, list[str]] = {}
        for (table_name, _), index_name in self._created.items():
            out.setdefault(table_name, []).append(index_name)
        return out

    def probe_width_report(self) -> dict[str, dict[str, float]]:
        """Observed band-join probe widths per table.

        The sharded engine's adaptive halo sizing reads this: a boundary
        strip must be at least half the widest probe (plus margin) for
        band joins near a shard edge to see all their partners.  Widths
        are per-execution averages, so callers should leave headroom when
        per-row probe widths vary.
        """
        out: dict[str, dict[str, float]] = {}
        for (table, _columns), obs in self._observations.items():
            if obs.max_width <= 0.0:
                continue
            entry = out.setdefault(table, {"mean_width": 0.0, "max_width": 0.0})
            if obs.mean_width is not None:
                entry["mean_width"] = max(entry["mean_width"], obs.mean_width)
            entry["max_width"] = max(entry["max_width"], obs.max_width)
        return out
