# Development entry points.  Each target mirrors a CI job exactly:
# `make check` = the test job, `make lint` = the lint job,
# `make examples` = the examples smoke job (every script in examples/),
# `make bench-incremental` = the incremental speedup gate,
# `make bench-index` = the index-join speedup gate,
# `make bench-shared` = the shared-plan (MQO) speedup gate,
# `make bench-subscriptions` = the subscription fan-out speedup gate,
# `make bench-wal` = the WAL persist-overhead + replay speedup gates,
# `make bench-compiled` = the kernel-compilation speedup gates,
# `make bench-fixpoint` = the semi-naive fixpoint + warm re-closure gates,
# `make bench-distributed` = the sharded multi-process speedup gate,
# `make cov` = the coverage job (pytest --cov, fails under the floor),
# `make bench-ci` = the benchmark/regression job (writes BENCH_tick.json),
# `make e2e-check` = the end-to-end check job (benchmarks/e2e, every workload traced),
# `make loadtest` = the capacity ramp (find the tick-deadline breaking point).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test smoke examples lint cov bench bench-columnar bench-incremental bench-index bench-shared bench-subscriptions bench-wal bench-compiled bench-fixpoint bench-distributed bench-ci e2e-check loadtest

## Run the tier-1 test suite plus a quickstart smoke run (CI gate).
check: test smoke

## Tier-1 tests (unit + equivalence + workloads).
test:
	$(PYTHON) -m pytest -x -q

## Smoke: the quickstart example must run end to end.
smoke:
	$(PYTHON) examples/quickstart.py

## Smoke every example script end to end (the CI examples job).
examples:
	@set -e; for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null; \
	done; echo "all examples ran cleanly"

## Lint (same command as the CI lint job; `pip install ruff` if missing).
lint:
	ruff check .

## Full benchmark suite (pytest-benchmark; takes a few minutes).
bench:
	$(PYTHON) -m pytest benchmarks -q

## Just the columnar-vs-row benchmarks, with timings printed.
bench-columnar:
	$(PYTHON) -m pytest benchmarks/bench_columnar.py -q -s

## Incremental-vs-batch/row benchmarks incl. the >=3x low-churn gate.
bench-incremental:
	$(PYTHON) -m pytest benchmarks/bench_incremental.py -q -s

## Index-join-vs-grid-rebuild benchmarks incl. the >=3x gate.
bench-index:
	$(PYTHON) -m pytest benchmarks/bench_index_join.py -q -s

## Shared-plan-pipeline-vs-per-query benchmarks incl. the >=2x gate.
bench-shared:
	$(PYTHON) -m pytest benchmarks/bench_shared_plans.py -q -s

## Subscription delta-fan-out-vs-re-query benchmarks incl. the >=5x gate.
bench-subscriptions:
	$(PYTHON) -m pytest benchmarks/bench_subscriptions.py -q -s

## WAL durability gates: persist phase <10% of the tick, replay >=2x live.
bench-wal:
	$(PYTHON) -m pytest benchmarks/bench_wal.py -q -s

## Compiled-kernel-vs-interpreted-batch benchmarks incl. the >=2x gates.
bench-compiled:
	$(PYTHON) -m pytest benchmarks/bench_compiled.py -q -s

## Fixpoint gates: semi-naive >=3x naive, warm re-closure >=2x from-scratch.
bench-fixpoint:
	$(PYTHON) -m pytest benchmarks/bench_fixpoint.py -q -s

## Sharded multi-process gate: >=2x critical-path speedup at 4 shards.
bench-distributed:
	$(PYTHON) -m pytest benchmarks/bench_distributed.py -q -s

## Tier-1 tests under coverage (`pip install pytest-cov` if missing).
cov:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=82

## CI benchmark pipeline: write BENCH_tick.json, gate vs the baseline.
bench-ci:
	$(PYTHON) benchmarks/ci_bench.py --output BENCH_tick.json --baseline benchmarks/BENCH_baseline.json

## Every BENCHMARK.json workload once, traced, 40 ticks: fails on a broken
## client replica, WAL recovery, invariant or stationarity check, or when a
## span target of benchmarks/e2e/e2ebench/spans.py no longer resolves.
E2E_WORKLOADS = rts_served rts_lowchurn mover_fanout market_txn rts_sharded2
e2e-check:
	@for workload in $(E2E_WORKLOADS); do \
		if out=$$($(PYTHON) benchmarks/e2e/run.py --workload $$workload --seed 3 --ticks 40 --trace 1 2>&1); \
		then echo "ok      $$workload"; \
		else echo "$$out"; echo "FAILED  $$workload"; exit 1; fi; \
	done; echo "all e2e workloads checked"

## Capacity ramp: grow units/subscribers until the tick deadline breaches,
## report the breaking point with per-phase p50/p95/p99 latencies.
loadtest:
	$(PYTHON) benchmarks/loadtest.py --output BENCH_tick.json
