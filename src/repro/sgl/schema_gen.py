"""Schema generation: from SGL class declarations to relational schemas.

Section 2.1 of the paper: "The SGL compiler can generate the tables from
these class definitions without the programmer knowing anything about
them … we have discovered that it is often best to break a class up into
multiple tables containing those attributes that commonly appear in
expressions together.  In other cases it is preferable to construct a
single table for all of the state variables, and a separate table for each
individual effect variable."

This module implements the state layouts:

* :class:`SchemaLayout.SINGLE` — one table per class holding the key and
  every state field (the default).
* :class:`SchemaLayout.VERTICAL` — the state fields are split into groups
  of co-accessed attributes (spatial attributes together, the rest
  together, or caller-provided groups); scans reconstruct the extent by
  joining the partitions on the key.

The per-effect tables are not reproduced: effect assignments are never
materialized as rows, because effects combine in-engine (fused effect
sinks and :class:`~repro.runtime.effects.EffectStore`), so such a table
would be written and read by nothing.

Every generated table carries an implicit ``id`` key column; the SGL
programmer never sees any of this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.algebra import Join, LogicalPlan, Project, TableScan
from repro.engine.catalog import Catalog
from repro.engine.expressions import BinaryOp, ColumnRef
from repro.engine.schema import Column, Schema
from repro.engine.types import DataType
from repro.sgl.ast_nodes import ClassDecl, NumberLiteral, BoolLiteral, StringLiteral, SglExpression
from repro.sgl.errors import SGLCompileError

__all__ = ["SchemaLayout", "GeneratedSchema", "SchemaGenerator", "KEY_COLUMN", "sgl_type_to_engine"]

#: Name of the implicit key column added to every generated table.
KEY_COLUMN = "id"

#: Default attribute names treated as "spatial" for vertical partitioning.
SPATIAL_ATTRIBUTES = ("x", "y", "z", "vx", "vy", "vz")


class SchemaLayout(enum.Enum):
    """How a class declaration maps onto relational tables."""

    SINGLE = "single"
    VERTICAL = "vertical"


def sgl_type_to_engine(type_name: str) -> DataType:
    """Map an SGL type keyword to the engine column type."""
    mapping = {
        "number": DataType.NUMBER,
        "bool": DataType.BOOL,
        "string": DataType.STRING,
        "ref": DataType.REF,
        "set": DataType.SET,
    }
    try:
        return mapping[type_name]
    except KeyError:
        raise SGLCompileError(f"unknown SGL type {type_name!r}") from None


def _literal_default(expr: SglExpression | None):
    """Extract a Python default value from a literal default expression."""
    if expr is None:
        return None
    if isinstance(expr, NumberLiteral):
        return expr.value
    if isinstance(expr, BoolLiteral):
        return expr.value
    if isinstance(expr, StringLiteral):
        return expr.value
    raise SGLCompileError("state field defaults must be literal values")


@dataclass
class GeneratedSchema:
    """The tables generated for one class under one layout."""

    class_name: str
    layout: SchemaLayout
    #: Table name -> schema for the state partitions (in join order).
    state_tables: dict[str, Schema] = field(default_factory=dict)

    @property
    def primary_table(self) -> str:
        """The table holding the key (the first state partition)."""
        return next(iter(self.state_tables))

    def state_table_names(self) -> list[str]:
        return list(self.state_tables)


class SchemaGenerator:
    """Generates table schemas and extent plans for SGL classes."""

    def __init__(
        self,
        layout: SchemaLayout = SchemaLayout.SINGLE,
        vertical_groups: Sequence[Sequence[str]] | None = None,
    ):
        self.layout = layout
        self.vertical_groups = [list(group) for group in (vertical_groups or [])]

    # -- schema generation ------------------------------------------------------------------

    def generate(self, class_decl: ClassDecl) -> GeneratedSchema:
        """Generate the relational schemas for *class_decl*."""
        generated = GeneratedSchema(class_name=class_decl.name, layout=self.layout)
        if self.layout is SchemaLayout.VERTICAL:
            groups = self._vertical_groups(class_decl)
            for index, group in enumerate(groups):
                name = class_decl.name if index == 0 else f"{class_decl.name}__part{index}"
                generated.state_tables[name] = self._state_schema(class_decl, group)
        else:
            all_fields = [f.name for f in class_decl.state_fields]
            generated.state_tables[class_decl.name] = self._state_schema(class_decl, all_fields)
        return generated

    def _state_schema(self, class_decl: ClassDecl, field_names: Sequence[str]) -> Schema:
        columns = [Column(KEY_COLUMN, DataType.NUMBER, nullable=False)]
        for name in field_names:
            decl = class_decl.state_field(name)
            if decl is None:
                raise SGLCompileError(
                    f"vertical group references unknown state field {name!r} "
                    f"of class {class_decl.name!r}"
                )
            columns.append(
                Column(decl.name, sgl_type_to_engine(decl.type_name), default=_literal_default(decl.default))
            )
        return Schema(columns)

    def _vertical_groups(self, class_decl: ClassDecl) -> list[list[str]]:
        all_fields = [f.name for f in class_decl.state_fields]
        if self.vertical_groups:
            grouped = [name for group in self.vertical_groups for name in group]
            leftover = [name for name in all_fields if name not in grouped]
            groups = [list(group) for group in self.vertical_groups if group]
            if leftover:
                groups.append(leftover)
            return [g for g in groups if g] or [all_fields]
        spatial = [name for name in all_fields if name in SPATIAL_ATTRIBUTES]
        rest = [name for name in all_fields if name not in SPATIAL_ATTRIBUTES]
        groups = [group for group in (spatial, rest) if group]
        return groups or [all_fields]

    # -- catalog registration -----------------------------------------------------------------

    def register(self, catalog: Catalog, class_decl: ClassDecl) -> GeneratedSchema:
        """Create the generated tables in *catalog* and return the layout."""
        generated = self.generate(class_decl)
        for table_name, schema in generated.state_tables.items():
            catalog.create_table(table_name, schema, key=KEY_COLUMN)
        return generated

    # -- extent plans ------------------------------------------------------------------------------

    def extent_plan(self, generated: GeneratedSchema, alias: str) -> LogicalPlan:
        """A logical plan producing the full extent of the class under *alias*.

        For the SINGLE layout this is one scan; for the
        VERTICAL layout the partitions are joined back together on the key
        and re-qualified under *alias*, so the compiler (and therefore the
        script writer) never notices the physical split.
        """
        names = generated.state_table_names()
        plan: LogicalPlan = TableScan(names[0], alias=alias)
        if len(names) == 1:
            return plan
        projections: dict[str, ColumnRef] = {}
        for column in generated.state_tables[names[0]]:
            projections[f"{alias}.{column.name}"] = ColumnRef(f"{alias}.{column.name}")
        for index, table_name in enumerate(names[1:], start=1):
            part_alias = f"{alias}__part{index}"
            condition = BinaryOp(
                "==", ColumnRef(f"{alias}.{KEY_COLUMN}"), ColumnRef(f"{part_alias}.{KEY_COLUMN}")
            )
            plan = Join(plan, TableScan(table_name, alias=part_alias), condition, how="inner")
            for column in generated.state_tables[table_name]:
                output = f"{alias}.{column.name}"
                if output not in projections:
                    projections[output] = ColumnRef(f"{part_alias}.{column.name}")
        # Re-qualify the joined partitions under the single alias so every
        # downstream reference (``self.health``) resolves exactly.
        return Project(plan, projections)
