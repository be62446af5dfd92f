"""The union operator."""

from __future__ import annotations

from typing import Any, Iterator

from repro.engine.operators.base import PhysicalOperator
from repro.engine.schema import Schema

__all__ = ["UnionOp"]


class UnionOp(PhysicalOperator):
    """Bag union: all rows of the left input, then all rows of the right."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator, schema: Schema):
        super().__init__(schema, (left, right))

    def _produce(self) -> Iterator[dict[str, Any]]:
        yield from self.children[0]
        yield from self.children[1]

    def label(self) -> str:
        return "Union"
