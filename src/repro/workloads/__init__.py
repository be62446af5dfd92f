"""Workload generators used by the examples, tests and benchmarks."""

from repro.workloads.contagion import (
    CONTAGION_SOURCE,
    build_contagion_world,
    churn_links,
    infect,
    infected_ids,
    site_rows,
)
from repro.workloads.marketplace import MARKET_SOURCE, build_marketplace_world
from repro.workloads.rts import RTS_SOURCE, build_rts_world, unit_rows
from repro.workloads.traffic import TRAFFIC_SOURCE, build_traffic_world, vehicle_rows

__all__ = [
    "CONTAGION_SOURCE",
    "build_contagion_world",
    "churn_links",
    "infect",
    "infected_ids",
    "site_rows",
    "MARKET_SOURCE",
    "build_marketplace_world",
    "RTS_SOURCE",
    "build_rts_world",
    "unit_rows",
    "TRAFFIC_SOURCE",
    "build_traffic_world",
    "vehicle_rows",
]
