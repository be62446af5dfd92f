"""The catalog: a namespace of tables and their indexes.

The SGL compiler registers one or more tables per class declaration
(depending on the schema layout strategy, Section 2.1 of the paper); the
optimizer consults the catalog for schemas and available indexes.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.engine.errors import CatalogError
from repro.engine.schema import Schema
from repro.engine.table import Table, TableIndex

__all__ = ["Catalog"]


class Catalog:
    """A registry of named tables and their indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

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

    def summary(self) -> Mapping[str, int]:
        """Return a mapping of table name to row count (for debug tooling)."""
        return {name: len(table) for name, table in self._tables.items()}
