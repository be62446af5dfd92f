"""Marketplace / financial-exchange workload (Section 3.1).

The paper's running transaction example: characters exchange in-game
currency for items, exchanges must be atomic and consistent ("money should
be deducted from my account only if I receive the appropriate items"), and
without isolation the same item can be sold twice — the classic "duping"
bug.  Buyers run an ``atomic`` purchase script with the constraints
``gold >= 0`` and ``stock >= 0``; the :class:`TransactionEngine` admits a
consistent subset each tick.

``build_marketplace_world`` controls contention with ``buyers_per_item``:
the higher it is, the more concurrent purchases target the same seller's
limited stock and the more transactions must abort (experiment E8).
"""

from __future__ import annotations

import random

from repro.engine.config import EngineConfig
from repro.runtime.transactions import TransactionEngine
from repro.runtime.world import ExecutionMode, GameWorld

__all__ = ["MARKET_SOURCE", "build_marketplace_world"]

MARKET_SOURCE = """
class Trader {
  state:
    number is_seller = 0;
    number gold = 20;
    number stock = 0;
    number price = 10;
    ref vendor;
  effects:
    number gold_delta : sum;
    number stock_delta : sum;
    number purchases : sum;
}

// Buyers attempt to purchase one item from their vendor each tick.
script purchase(Trader self) {
  if (is_seller == 0) {
    atomic require(gold >= 0, stock >= 0) {
      gold_delta <- 0 - price;
      stock_delta <- 1;
      vendor.gold_delta <- price;
      vendor.stock_delta <- 0 - 1;
      purchases <- 1;
    }
  }
}
"""


def build_marketplace_world(
    n_buyers: int,
    buyers_per_item: int = 4,
    seller_stock: int = 2,
    buyer_gold: float = 50.0,
    price: float = 10.0,
    mode: ExecutionMode = ExecutionMode.INTERPRETED,
    seed: int = 11,
    *,
    config: EngineConfig | None = None,
) -> GameWorld:
    """A marketplace with ``n_buyers`` buyers contending over shared sellers.

    ``buyers_per_item`` buyers share each seller, whose stock is
    ``seller_stock`` items — so at most ``seller_stock`` of them can succeed
    per seller before the ``stock >= 0`` constraint aborts the rest.
    """
    world = GameWorld(MARKET_SOURCE, mode=mode, config=config)
    engine = TransactionEngine(
        owned={"Trader": {"gold_delta": "gold", "stock_delta": "stock"}},
        classes={decl.name: decl for decl in world.program.classes},
    )
    world.add_component(engine)
    world.add_update_rule(
        "Trader",
        "price",
        lambda state, effects: state["price"],
    )

    rng = random.Random(seed)
    n_sellers = max(1, n_buyers // max(1, buyers_per_item))
    seller_ids = []
    for _ in range(n_sellers):
        seller_ids.append(
            world.spawn(
                "Trader",
                is_seller=1,
                gold=0.0,
                stock=seller_stock,
                price=price,
            )
        )
    for i in range(n_buyers):
        vendor = seller_ids[i % n_sellers]
        world.spawn(
            "Trader",
            is_seller=0,
            gold=buyer_gold + rng.uniform(0, 5),
            stock=0,
            price=price,
            vendor=vendor,
        )
    return world
