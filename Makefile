# Development entry points.  Each target mirrors a CI job exactly:
# `make check` = the test job, `make lint` = the lint job,
# `make examples` = the examples smoke job (every script in examples/),
# `make bench-fixpoint` = the semi-naive fixpoint + warm re-closure gates,
# `make cov` = the coverage job (pytest --cov, fails under the floor),
# `make e2e-check` = the end-to-end check job (benchmarks/e2e, every workload traced),
# `make e2e-digests` = one `workload state_digest` line per e2e workload; run it on two
# commits and `diff` the outputs to show a change leaves behaviour untouched.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test smoke examples lint cov bench bench-fixpoint e2e-check e2e-digests

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

## The Figure-2 anchor and the fixpoint gates (pytest-benchmark; a few
## minutes).  Tick costs are measured by benchmarks/e2e (BENCHMARK.json).
bench:
	$(PYTHON) -m pytest benchmarks/bench_fig2_accum_loop.py benchmarks/bench_fixpoint.py -q

## Fixpoint gates: semi-naive >=3x naive, warm re-closure >=2x from-scratch.
bench-fixpoint:
	$(PYTHON) -m pytest benchmarks/bench_fixpoint.py -q -s

## Tier-1 tests under coverage (`pip install pytest-cov` if missing).
cov:
	$(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=82

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

## `workload state_digest` for every BENCHMARK.json workload, untraced, at
## --seed 3 --ticks 60 (~30 s); identical output means identical final state.
e2e-digests:
	@for workload in $(E2E_WORKLOADS); do \
		out=$$($(PYTHON) benchmarks/e2e/run.py --workload $$workload --seed 3 --ticks 60 2>&1) \
			|| { echo "$$out"; echo "FAILED  $$workload"; exit 1; }; \
		echo "$$workload $$(echo "$$out" | sed -n 's/.*digest=\([0-9a-f]*\).*/\1/p')"; \
	done
