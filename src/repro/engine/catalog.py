"""The catalog: a namespace of tables, indexes and collected statistics.

The SGL compiler registers one or more tables per class declaration
(depending on the schema layout strategy, Section 2.1 of the paper); the
optimizer consults the catalog for schemas, available indexes and
statistics.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.engine.errors import CatalogError
from repro.engine.schema import Schema
from repro.engine.statistics import TableStatistics, collect_table_statistics
from repro.engine.table import Table, TableIndex

__all__ = ["Catalog"]


class Catalog:
    """A registry of named tables and their indexes and statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, TableStatistics] = {}
        self._stats_version: dict[str, int] = {}

    # -- tables ---------------------------------------------------------------------

    def create_table(self, name: str, schema: Schema, key: str | None = None) -> Table:
        """Create and register a new table; raises if the name is taken."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, schema, key=key)
        self._tables[name] = table
        return table

    def register_table(self, table: Table) -> None:
        """Register an externally constructed table."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise CatalogError(f"no table named {name!r}")
        del self._tables[name]
        self._statistics.pop(name, None)
        self._stats_version.pop(name, None)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    # -- indexes ----------------------------------------------------------------------

    def create_index(self, table_name: str, index_name: str, index: TableIndex) -> TableIndex:
        """Attach *index* to *table_name* under *index_name*."""
        table = self.table(table_name)
        table.attach_index(index_name, index)
        return index

    def drop_index(self, table_name: str, index_name: str) -> None:
        self.table(table_name).detach_index(index_name)

    # -- statistics --------------------------------------------------------------------

    def statistics(self, table_name: str, *, refresh: bool = False) -> TableStatistics:
        """Return (possibly cached) statistics for *table_name*.

        Statistics are recollected lazily whenever the table's version has
        changed since the last collection, or when *refresh* is forced.
        This keeps the "keep statistics about the distribution of our data"
        cost (Section 4.1) out of the per-tick critical path.
        """
        table = self.table(table_name)
        cached = self._statistics.get(table_name)
        if (
            refresh
            or cached is None
            or self._stats_version.get(table_name) != table.version
        ):
            cached = collect_table_statistics(table)
            self._statistics[table_name] = cached
            self._stats_version[table_name] = table.version
        return cached

    def invalidate_statistics(self, table_name: str | None = None) -> None:
        """Drop cached statistics for one table or for all tables."""
        if table_name is None:
            self._statistics.clear()
            self._stats_version.clear()
        else:
            self._statistics.pop(table_name, None)
            self._stats_version.pop(table_name, None)

    def summary(self) -> Mapping[str, int]:
        """Return a mapping of table name to row count (for debug tooling)."""
        return {name: len(table) for name, table in self._tables.items()}
