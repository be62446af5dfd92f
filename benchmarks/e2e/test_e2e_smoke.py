"""Smoke test of the end-to-end benchmark (collected by tier-1, a few seconds).

Runs every workload at ``--smoke`` size, checks that each metric of
``BENCHMARK.json`` is measured exactly where it applies, and proves that
the correctness checks can fail.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import compare  # noqa: E402
from e2ebench import checks  # noqa: E402
from e2ebench.harness import run_workload  # noqa: E402
from e2ebench.workloads import WORKLOADS, aoi_box_rows  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

SERVED = {"rts_served", "rts_lowchurn", "mover_fanout"}
IN_PROCESS = SERVED | {"market_txn"}


def applies(metric: str, workload: str) -> bool:
    """Whether *metric* is measured on *workload* (the README's table)."""
    if metric in {
        "runtime.world.tick_window_p50_ms",
        "runtime.world.tick_p95_ms",
        "runtime.world.tick_drift_share",
        "obs.trace_overhead_share",
        "runtime.world.effect_assignments_per_tick",
        "service.subscriptions.delta_rows_per_tick",
        "service.subscriptions.messages_per_tick",
    }:
        return True
    if metric.startswith("shard."):
        return workload == "rts_sharded2"
    if metric in {"delta_latency_p50_ms", "wire_bytes_per_tick", "service.subscriptions.resyncs"}:
        return workload in SERVED
    if metric.startswith(("service.protocol.", "service.server.")):
        return workload in SERVED
    if metric == "persistence.log.checkpoint_ms":
        return False  # no checkpoint falls inside a six-tick window
    return workload in IN_PROCESS


def test_benchmark_json_names_known_workloads():
    gated = [spec["name"] for spec in CONTRACT["workloads"]]
    assert set(gated) <= set(WORKLOADS) and "rts_served" in gated


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_its_metrics(name, tmp_path):
    record = asyncio.run(
        run_workload(
            name, seed=7, ticks=12, trace=True, smoke=True, setups=1, work_dir=str(tmp_path / "work")
        )
    )
    assert record["problems"] == []
    assert record["failed"] == 0 and record["ops"] == 12
    assert record["self_time_gap"] < 0.01
    metrics = record["metrics"]
    for spec in CONTRACT["end_to_end"]:
        assert math.isfinite(metrics[spec["name"]]) and metrics[spec["name"]] > 0, spec["name"]
    for spec in CONTRACT["per_layer"]:
        if applies(spec["name"], name):
            assert math.isfinite(metrics[spec["name"]]), spec["name"]
        else:
            assert spec["name"] not in metrics, spec["name"]
    known = {spec["name"] for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert set(metrics) <= known
    assert not os.path.exists(tmp_path / "work")  # WAL directory removed


def test_same_seed_same_digest_and_counts(tmp_path):
    def run():
        return asyncio.run(
            run_workload(
                "mover_fanout", seed=3, ticks=6, smoke=True, setups=1, work_dir=str(tmp_path / "w")
            )
        )

    first, second = run(), run()
    assert compare.exact_differences(first, second, CONTRACT) == []
    assert first["metrics"]["wire_bytes_per_tick"] > 0
    other = asyncio.run(
        run_workload("mover_fanout", seed=4, ticks=6, smoke=True, setups=1, work_dir=str(tmp_path / "w"))
    )
    assert other["state_digest"] != first["state_digest"]


def test_cli_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "market_txn", "--smoke",
         "--seconds", "0.2", "--seed", "5", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in CONTRACT["end_to_end"]}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", "_work")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "market_txn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout == ""


# -- the checks can fail ---------------------------------------------------------------


def test_tampered_replica_is_caught():
    workload = WORKLOADS["rts_served"](seed=1, smoke=True)
    rows = [dict(row, id=k) for k, row in enumerate(workload.rows)]
    observers = dict(enumerate(workload.observers))
    by_id = {row["id"]: row for row in rows}
    replicas = {
        sub: aoi_box_rows(rows, (by_id[obs]["x"], by_id[obs]["y"]), workload.radius)
        for sub, obs in observers.items()
    }
    assert checks.check_replicas(replicas, observers, rows, workload.radius) == []
    replicas[0] = [dict(row, health=row["health"] - 1) for row in replicas[0]]
    assert len(checks.check_replicas(replicas, observers, rows, workload.radius)) == 1
    del replicas[1]
    assert len(checks.check_replicas(replicas, observers, rows, workload.radius)) == 2


def test_truncated_wal_is_caught(tmp_path):
    workload = WORKLOADS["mover_fanout"](seed=1, smoke=True)
    world = workload.build()
    world.attach_wal(str(tmp_path), checkpoint_interval=50)
    world.run(5)
    world.detach_wal()
    problems, _ = checks.check_recovery(world, workload.build(), str(tmp_path))
    assert problems == []
    segment = max(tmp_path.iterdir(), key=lambda path: path.stat().st_size)
    with open(segment, "r+b") as handle:
        handle.truncate(segment.stat().st_size * 2 // 3)
    problems, _ = checks.check_recovery(world, workload.build(), str(tmp_path))
    assert problems


def test_unrestocked_market_is_caught():
    workload = WORKLOADS["market_txn"](seed=1, smoke=True)
    world = workload.build()
    reports = world.run(6)  # the scenario as shipped: nobody restocks
    assert reports[0].transactions_committed > 0
    assert all(report.transactions_committed == 0 for report in reports[1:])
    assert any("commit share" in problem for problem in workload.check(world, reports))

    world = workload.build()
    reports = []
    for _ in range(6):
        workload.drive(world)
        reports.append(world.tick())
    assert workload.check(world, reports) == []


def test_running_dry_is_caught():
    steady = [100.0] * 50
    assert checks.check_work_is_stationary(steady) == []
    assert checks.check_work_is_stationary(steady[:25] + [10.0] * 25)


# -- compare.py ------------------------------------------------------------------------


def _result(ticks_per_s, failed=0):
    base = {"setup_s": 1.0, "tick_p50_ms": 10.0, "cpu_ms_per_tick": 10.0, "peak_rss_mb": 40.0}
    return {
        "runs": [
            {
                "workload": "rts_served", "trace": False, "seed": k, "ticks": 100, "seconds": 10.0,
                "ops": 100, "failed": failed, "state_digest": "d",
                "metrics": dict(base, ticks_per_s=value),
            }
            for k, value in enumerate(ticks_per_s)
        ]
    }  # fmt: skip


def test_compare_verdicts():
    steady = _result([20.0, 20.1, 19.9, 20.0, 20.05])

    def word(b):
        lines, passed = compare.compare(steady, b, CONTRACT)
        return next(line for line in lines if " ticks_per_s " in line).split()[-1], passed

    assert word(steady) == ("same", True)
    assert word(_result([12.0, 12.1, 11.9, 12.0, 12.05])) == ("worse", False)
    assert word(_result([30.0, 30.1, 29.9, 30.0, 30.05])) == ("better", True)
    assert word(_result([12.0, 25.0, 18.0, 30.0, 20.0])) == ("unresolved", True)
    assert word(_result([20.0, 20.1, 19.9, 20.0, 20.05], failed=3)) == ("same", False)
