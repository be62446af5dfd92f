"""Physical operator base class.

Physical operators form an iterator tree: each operator produces row dicts
and pulls from its children.  The base class counts produced rows and wall
clock time per operator, which feeds two systems from the paper:

* the adaptive optimizer's runtime monitoring (Section 4.1) compares the
  observed cardinalities against the estimates baked into the plan, and
* the debugger's ``explain analyze`` output (Section 3.3).
"""

from __future__ import annotations

import time
from typing import Any, Iterator

from repro.engine.schema import Schema

__all__ = ["PhysicalOperator"]


class PhysicalOperator:
    """Base class for physical operators (iterator model)."""

    def __init__(self, schema: Schema, children: tuple["PhysicalOperator", ...] = ()):
        self.schema = schema
        self.children = children
        #: Number of rows this operator has produced across all executions.
        self.rows_produced = 0
        #: Number of times the operator tree has been executed (ticks).
        self.executions = 0
        #: Total seconds spent producing rows (includes children's time).
        self.elapsed = 0.0

    def _produce(self) -> Iterator[dict[str, Any]]:
        """Yield output rows; subclasses implement this."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[dict[str, Any]]:
        self.executions += 1
        start = time.perf_counter()
        try:
            for row in self._produce():
                self.rows_produced += 1
                yield row
        finally:
            self.elapsed += time.perf_counter() - start

    def rows(self) -> list[dict[str, Any]]:
        """Materialize the full output as a list."""
        return list(self)

    # -- introspection ---------------------------------------------------------------

    def label(self) -> str:
        """A one-line description used by explain output."""
        return type(self).__name__

    def explain(self, indent: int = 0, *, analyze: bool = False) -> str:
        """Render the operator tree; with *analyze*, include runtime counters."""
        line = ("  " * indent) + self.label()
        if analyze:
            line += f"  [rows={self.rows_produced} execs={self.executions} time={self.elapsed:.4f}s]"
        parts = [line]
        for child in self.children:
            parts.append(child.explain(indent + 1, analyze=analyze))
        return "\n".join(parts)

    def walk(self) -> Iterator["PhysicalOperator"]:
        yield self
        for child in self.children:
            yield from child.walk()
