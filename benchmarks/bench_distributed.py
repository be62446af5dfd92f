"""E21 — the real multi-process sharded engine (``repro.shard``).

Runs the rts-derived scenario on worker processes and gates the
critical-path CPU speedup: 4 shards on 10k units / 1k AOI subscribers must
beat the single-process oracle by at least 2x.  CPU seconds are
scheduling-invariant, so the gate holds on single-core CI runners (see
``shard_scenario.run_shard_benchmark``).
"""

from __future__ import annotations

import shard_scenario
from repro.bench import Experiment


def test_sharded_smoke_two_shards(capsys):
    """Fast end-to-end pass over the whole protocol at small scale."""
    result = shard_scenario.run_shard_benchmark(
        n_units=600, n_subscribers=40, n_shards=2, warmup=1, ticks=2
    )
    with capsys.disabled():
        print(
            f"\nE21 smoke (2 shards, 600 units): speedup={result['shard_speedup']}x "
            f"exchange_bytes/tick={result['exchange_bytes_per_tick']}"
        )
    assert result["exchange_bytes_per_tick"] > 0
    assert result["halo_rows_per_tick"] > 0
    assert result["critical_path_seconds_per_tick"] > 0


def test_sharded_speedup_gate(capsys):
    """The ISSUE 9 acceptance gate: >=2x tick throughput at 4 shards on the
    10k-unit / 1k-subscriber scenario, measured as critical-path CPU."""
    result = shard_scenario.run_shard_benchmark(
        n_units=10_000, n_subscribers=1_000, n_shards=4, warmup=3, ticks=3
    )
    experiment = Experiment(
        "E21: sharded multi-process tick vs single-process oracle",
        columns=[
            "shards",
            "single_cpu_s",
            "critical_path_s",
            "speedup",
            "exchange_bytes",
        ],
    )
    experiment.add_row(
        shards=result["n_shards"],
        single_cpu_s=result["single_cpu_seconds_per_tick"],
        critical_path_s=result["critical_path_seconds_per_tick"],
        speedup=result["shard_speedup"],
        exchange_bytes=result["exchange_bytes_per_tick"],
    )
    with capsys.disabled():
        experiment.print()
    assert result["shard_speedup"] >= 2.0
    assert result["exchange_bytes_per_tick"] > 0
