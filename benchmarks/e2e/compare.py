"""Compare two result files of ``run.py`` under the bounds of ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A.json > summary.json

The first prints one row per (workload, end-to-end metric): both medians, how much
worse B is than A as a share of A (negative = better), each side's
run-to-run spread (distance between first and third quartile as a share of
the median) and a verdict:

* ``same`` / ``worse`` / ``better`` — B's median is within / beyond the
  metric's bound of A's;
* ``unresolved`` — a side's spread is wider than the bound, so the medians
  cannot settle it (or a side has fewer than four runs to take a spread of).

Runs made with ``--ticks`` (fixed step count) and the same seed on both
sides must also agree exactly on ``state_digest`` and on every metric whose
unit is ``count`` or ``B``; a disagreement is reported as ``differs``.

Exits non-zero on any ``worse`` or ``differs``, or when B failed a higher
share of its ticks than A.

With one file it prints that file's summary as JSON instead: per workload
and end-to-end metric the median, minimum, maximum and spread over the
untraced runs, and the layer metrics of the traced run (``BASELINE.json``
was made this way).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
EXACT_UNITS = ("count", "B")


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median; ``None`` below four runs."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], spec: dict[str, Any]) -> tuple[float, str]:
    """How much worse B's median is (share of A's), and what that means."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = (median_b - median_a) / median_a
    if spec["better"] == "higher":
        worse_by = -worse_by
    spreads = (spread(a), spread(b))
    if any(s is None or s > spec["bound"] for s in spreads):
        return worse_by, "unresolved"
    if worse_by > spec["bound"]:
        return worse_by, "worse"
    if worse_by < -spec["bound"]:
        return worse_by, "better"
    return worse_by, "same"


def by_workload(result: dict[str, Any], *, trace: bool) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for run in result["runs"]:
        if run["trace"] == trace:
            runs[run["workload"]].append(run)
    return runs


def exact_differences(
    a: dict[str, Any], b: dict[str, Any], contract: dict[str, Any]
) -> list[str]:
    """What must repeat exactly between two fixed-tick runs of one seed and does not."""
    units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"] + contract["per_layer"]}
    out = [] if a["state_digest"] == b["state_digest"] else ["state_digest"]
    for name, value in a["metrics"].items():
        if units.get(name) in EXACT_UNITS and b["metrics"].get(name) != value:
            out.append(name)
    return out


def exact_rows(
    runs_a: dict[str, list[dict[str, Any]]],
    runs_b: dict[str, list[dict[str, Any]]],
    contract: dict[str, Any],
) -> tuple[list[str], bool]:
    """One line per fixed-tick run of A that has a twin (same seed and step count) in B."""
    lines, identical = [], True
    for workload in sorted(set(runs_a) & set(runs_b)):
        twins = {
            (run["seed"], run["ticks"]): run for run in runs_b[workload] if run["seconds"] is None
        }
        for run in runs_a[workload]:
            twin = twins.get((run["seed"], run["ticks"]))
            if run["seconds"] is not None or twin is None:
                continue
            names = exact_differences(run, twin, contract)
            identical &= not names
            lines.append(
                f"{workload:<14}exact (seed {run['seed']}, {run['ticks']} ticks, "
                f"trace {int(run['trace'])})  "
                + (f"differs: {', '.join(names)}" if names else "identical")
            )
    return lines, identical


def compare(a: dict[str, Any], b: dict[str, Any], contract: dict[str, Any]) -> tuple[list[str], bool]:
    """The report lines, and whether B passes."""
    lines = [
        f"{'workload':<14}{'metric':<18}{'A median':>12}{'B median':>12}{'worse by':>10}"
        f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict"
    ]
    passed = True
    runs_a, runs_b = by_workload(a, trace=False), by_workload(b, trace=False)
    for workload in sorted(set(runs_a) & set(runs_b)):
        for spec in contract["end_to_end"]:
            values_a = [run["metrics"][spec["name"]] for run in runs_a[workload]]
            values_b = [run["metrics"][spec["name"]] for run in runs_b[workload]]
            worse_by, word = verdict(values_a, values_b, spec)
            passed &= word != "worse"
            spreads = ["   n<4" if s is None else f"{s:.3f}" for s in (spread(values_a), spread(values_b))]
            lines.append(
                f"{workload:<14}{spec['name']:<18}{statistics.median(values_a):>12.4f}"
                f"{statistics.median(values_b):>12.4f}{worse_by:>+10.3f}"
                f"{spreads[0]:>10}{spreads[1]:>10}{spec['bound']:>7.2f}  {word}"
            )

    for trace in (False, True):
        exact_lines, exact_ok = exact_rows(
            by_workload(a, trace=trace), by_workload(b, trace=trace), contract
        )
        lines += exact_lines
        passed &= exact_ok

    def failed_share(result: dict[str, Any]) -> float:
        ops = sum(run["ops"] for run in result["runs"])
        return sum(run["failed"] for run in result["runs"]) / ops if ops else 0.0

    share_a, share_b = failed_share(a), failed_share(b)
    lines.append(f"failed/ops: A {share_a:.4f}  B {share_b:.4f}")
    passed &= share_b <= share_a
    return lines, passed


def summary(result: dict[str, Any], contract: dict[str, Any]) -> dict[str, Any]:
    """Medians with their run-to-run spread, per workload."""
    layer_names = [spec["name"] for spec in contract["per_layer"]]
    traced = by_workload(result, trace=True)
    workloads = {}
    for workload, runs in by_workload(result, trace=False).items():
        end_to_end = {}
        for spec in contract["end_to_end"]:
            values = [run["metrics"][spec["name"]] for run in runs]
            end_to_end[spec["name"]] = {
                "unit": spec["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "spread": spread(values),
            }
        layers = traced[workload][-1]["metrics"] if traced.get(workload) else {}
        workloads[workload] = {
            "runs": len(runs),
            "seeds": [run["seed"] for run in runs],
            "ticks": [run["ticks"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": {name: layers[name] for name in layer_names if name in layers},
        }
    return {"environment": result["environment"], "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    results = []
    for path in argv:
        with open(path) as handle:
            results.append(json.load(handle))
    if len(results) == 1:
        print(json.dumps(summary(results[0], contract), indent=1))
        return 0
    lines, passed = compare(results[0], results[1], contract)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
