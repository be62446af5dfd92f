"""E17 — delta fan-out serving vs. naive per-client re-query.

The subscription service's reason to exist: at 1k subscribers / 1% churn
(``subscription_scenario.py``) serving every client from per-tick signed
deltas — each distinct standing query computed once, AOI changes routed
through subscription cells — must beat re-running every client's query per
tick by >= 5x (the ISSUE acceptance gate), while a sampled set of client
result sets stays exactly equal to scratch re-execution.
"""

from __future__ import annotations

import random
import time

from subscription_scenario import (
    CHURN_FRACTION,
    N_SUBSCRIBERS,
    SEED,
    build_units_catalog,
    churn_step,
    client_plans,
    naive_tick,
    subscribe_clients,
)
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.service.protocol import ResultSet, row_key
from repro.service.subscriptions import SubscriptionManager

TICKS = 10
GATE = 5.0


def _multiset(rows):
    return sorted(map(row_key, rows))


def test_delta_stream_equivalence_sampled():
    """Snapshot + delta stream == scratch re-query, for sampled clients."""
    catalog, units = build_units_catalog(n_rows=1_500)
    plans = client_plans(n_subscribers=60)
    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    sessions, sub_ids = subscribe_clients(manager, plans)
    scratch = Executor(catalog, EngineConfig(use_incremental=False))
    states = {sid: ResultSet() for sid in sub_ids}
    for session, sid in zip(sessions, sub_ids):
        for message in session.take():
            states[sid].apply(message)
    rng = random.Random(SEED)
    for tick in range(6):
        churn_step(units, rng)
        manager.flush(tick)
        for session, sid in zip(sessions, sub_ids):
            for message in session.take():
                states[sid].apply(message)
        for (kind, plan, _), sid in list(zip(plans, sub_ids))[::7]:
            expect = scratch.execute(plan, cache=False).rows
            assert _multiset(expect) == _multiset(states[sid].rows()), (
                f"tick {tick}: {kind} subscription {sid} diverged"
            )


def test_fanout_speedup_gate():
    """Delta fan-out must serve 1k subscribers >= 5x faster than re-query."""
    catalog, units = build_units_catalog()
    plans = client_plans()
    assert len(plans) == N_SUBSCRIBERS

    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    sessions, _ = subscribe_clients(manager, plans)
    for session in sessions:
        session.take()
    naive_exec = Executor(catalog, EngineConfig(use_incremental=False))
    naive_tick(naive_exec, plans)  # warm the plan cache

    rng = random.Random(SEED)
    delta_total = naive_total = 0.0
    delta_messages = 0
    for tick in range(TICKS):
        churn_step(units, rng)

        start = time.perf_counter()
        stats = manager.flush(tick)
        for session in sessions:
            delta_messages += len(session.take())
        delta_total += time.perf_counter() - start

        start = time.perf_counter()
        naive_tick(naive_exec, plans)
        naive_total += time.perf_counter() - start
        del stats

    speedup = naive_total / delta_total
    print(
        f"\n[bench_subscriptions] subscribers={N_SUBSCRIBERS} ticks={TICKS} "
        f"churn={CHURN_FRACTION:.0%} delta={delta_total:.3f}s "
        f"naive={naive_total:.3f}s speedup={speedup:.1f}x "
        f"(messages={delta_messages}, groups={manager.stats()['query_groups']})"
    )
    assert speedup >= GATE, (
        f"delta fan-out only {speedup:.1f}x faster than per-client re-query "
        f"(gate: {GATE:.0f}x at {N_SUBSCRIBERS} subscribers)"
    )


def test_dedup_collapses_filter_clients_into_few_groups():
    """500 filter clients share N_FILTER_SHAPES query groups (PR-4
    fingerprint dedup), so group evaluations stay O(shapes), not O(clients)."""
    catalog, _ = build_units_catalog(n_rows=500)
    plans = client_plans(n_subscribers=100)
    manager = SubscriptionManager(catalog=catalog, executor=Executor(catalog))
    subscribe_clients(manager, plans)
    stats = manager.stats()
    n_filter_clients = sum(1 for kind, _, _ in plans if kind == "filter")
    assert stats["query_subscribers"] == n_filter_clients
    assert stats["query_groups"] <= 8
    assert stats["dedup_factor"] >= n_filter_clients / 8


if __name__ == "__main__":
    import pytest

    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
