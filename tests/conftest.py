"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.engine import Catalog, Column, DataType, Schema
from repro.engine.compile import KernelLowering


@pytest.fixture(autouse=True)
def no_kernel_codegen_errors(monkeypatch):
    """Fail any test during which a kernel's analysis or codegen raised.

    Such a failure falls back to the row operators, so results stay right
    and only :class:`KernelLowering`'s ``errors`` counter shows the bug.
    """
    lowerings: list[KernelLowering] = []
    init = KernelLowering.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        lowerings.append(self)

    monkeypatch.setattr(KernelLowering, "__init__", tracking_init)
    yield
    errors = sum(lowering.errors for lowering in lowerings)
    if errors:
        pytest.fail(f"{errors} kernel codegen error(s) fell back to the row operators")


@pytest.fixture
def unit_catalog() -> Catalog:
    """A catalog with a populated ``unit`` table of 100 units on a 100x100 map."""
    catalog = Catalog()
    schema = Schema(
        [
            Column("id", DataType.NUMBER, nullable=False),
            Column("player", DataType.NUMBER),
            Column("x", DataType.NUMBER),
            Column("y", DataType.NUMBER),
            Column("health", DataType.NUMBER),
            Column("range", DataType.NUMBER),
        ]
    )
    table = catalog.create_table("unit", schema, key="id")
    rng = random.Random(42)
    for i in range(100):
        table.insert(
            {
                "id": i,
                "player": i % 4,
                "x": rng.uniform(0, 100),
                "y": rng.uniform(0, 100),
                "health": rng.randint(1, 100),
                "range": 10,
            }
        )
    return catalog


SIMPLE_GAME = """
class Unit {
  state:
    number player = 0;
    number x = 0;
    number y = 0;
    number health = 100;
    number range = 5;
  effects:
    number damage : sum;
    number vx : avg;
    number vy : avg;
}

script brawl(Unit self) {
  accum number hits with sum over Unit u from UNIT {
    if (u.x >= x - range && u.x <= x + range &&
        u.y >= y - range && u.y <= y + range && u.player != player) {
      hits <- 1;
    }
  } in {
    if (hits > 0) { damage <- hits; }
  }
}
"""


@pytest.fixture
def simple_game_source() -> str:
    return SIMPLE_GAME
