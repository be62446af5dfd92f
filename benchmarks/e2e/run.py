"""End-to-end benchmark of the served world: one command, every metric by name.

    python3 benchmarks/e2e/run.py --workload rts_served --seed 3 --seconds 10 --trace 0

runs one workload in this process (plus its client process or shard
workers) and prints, as the last line of its output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` it runs every workload, each run in
a fresh process: ``--repeat`` untraced runs (seed, seed + 1, ...) and then
one traced run, and writes everything to ``--out`` (the file ``compare.py``
reads).  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space (WAL directories); always removed, listed in .gitignore.
WORK_DIR = os.path.join(HERE, "_work")


def load_contract() -> dict:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


def remove_work_dir_if_empty() -> None:
    """Leave nothing behind (another run may still be using the directory)."""
    try:
        os.rmdir(WORK_DIR)
    except OSError:
        pass


def environment() -> dict:
    from e2ebench.workloads import CONFIG

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    clock = time.get_clock_info("perf_counter")
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "clock": f"{clock.implementation} (resolution {clock.resolution})",
        "engine_config": CONFIG.as_dict(),
        "execution_mode": "compiled",
    }


def selected_metrics(record: dict, contract: dict) -> dict:
    """The metrics this run must print, with the units the contract gives them."""
    wanted = contract["per_layer" if record["trace"] else "end_to_end"]
    measured = record["metrics"]
    out = {}
    for spec in wanted:
        # A layer that does no work on this workload (no WAL, no clients,
        # no shards) reports 0; an end-to-end metric is never missing.
        value = measured.get(spec["name"], 0.0 if record["trace"] else None)
        if value is None or not math.isfinite(value):
            raise SystemExit(f"metric {spec['name']} was not measured on {record['workload']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def print_record(record: dict, contract: dict) -> None:
    units = {spec["name"]: spec["unit"] for spec in contract["end_to_end"] + contract["per_layer"]}
    print(
        f"== {record['workload']}  seed={record['seed']}  ticks={record['ticks']}  "
        f"trace={int(record['trace'])}  digest={record['state_digest'][:16]}"
    )
    for name in sorted(record["metrics"]):
        print(f"  {name:<48} {record['metrics'][name]:>16.6g} {units.get(name, '')}")
    if record["trace"]:
        total = sum(seconds for _, _, seconds in record["self_table"])
        print(f"  self time by span (sum of self = sum of roots within {record['self_time_gap']:.2e}):")
        for name, calls, seconds in record["self_table"]:
            print(f"    {name:<40} {calls:>8} calls {seconds:>10.4f} s {seconds / total:>7.1%}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")


def run_one(args: argparse.Namespace, contract: dict) -> int:
    from e2ebench.harness import run_workload

    clock = time.get_clock_info("perf_counter").implementation
    if "CLOCK_MONOTONIC" not in clock:
        raise SystemExit(
            f"perf_counter is {clock}: client and server stamps would not share a time base"
        )
    # Every world gets EngineConfig.fastest() explicitly; the preset
    # variable could only reach code this benchmark does not mean to run.
    os.environ.pop("REPRO_ENGINE_PRESET", None)
    started = time.perf_counter()
    try:
        record = asyncio.run(
            run_workload(
                args.workload,
                args.seed,
                seconds=None if args.ticks else args.seconds,
                ticks=args.ticks,
                trace=bool(args.trace),
                smoke=args.smoke,
                setups=1 if args.smoke else 3,
                work_dir=os.path.join(WORK_DIR, str(os.getpid())),
                trace_out=args.trace_out,
            )
        )
    finally:
        remove_work_dir_if_empty()
    record["wall_seconds"] = time.perf_counter() - started
    print_record(record, contract)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"environment": environment(), "runs": [record]}, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["ops"],
                "failed": record["failed"],
                "metrics": selected_metrics(record, contract),
            }
        )
    )
    return 0 if record["failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh process: ``--repeat`` untraced runs, then one traced."""
    from e2ebench.workloads import WORKLOADS

    started = time.perf_counter()
    runs = []
    status = 0
    # A directory of our own keeps ``_work`` non-empty, so the children
    # leave it in place until the last result has been read.
    part_dir = os.path.join(WORK_DIR, f"all-{os.getpid()}")
    part = os.path.join(part_dir, "run.json")
    os.makedirs(part_dir, exist_ok=True)
    try:
        for name in WORKLOADS:
            for repeat in range(args.repeat + 1):
                trace = repeat == args.repeat
                command = [
                    sys.executable, os.path.abspath(__file__),
                    "--workload", name,
                    # Fixed-count runs repeat one seed (they must agree exactly).
                    "--seed", str(args.seed if args.ticks or trace else args.seed + repeat),
                    "--seconds", str(args.seconds),
                    "--trace", str(int(trace)),
                    "--out", part,
                ]  # fmt: skip
                if args.ticks:
                    command += ["--ticks", str(args.ticks // 4 if trace else args.ticks)]
                if args.smoke:
                    command.append("--smoke")
                status |= subprocess.run(command).returncode
                with open(part) as handle:
                    runs += json.load(handle)["runs"]
    finally:
        shutil.rmtree(part_dir, ignore_errors=True)
        remove_work_dir_if_empty()
    result = {
        "environment": environment(),
        "wall_seconds": time.perf_counter() - started,
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {args.out}: {len(runs)} runs in {result['wall_seconds']:.0f} s")
    return status


def main(argv: list[str] | None = None) -> int:
    from e2ebench.workloads import WORKLOADS

    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run this one (default: all of them)")
    parser.add_argument("--seed", type=int, default=1, help="every input is made from it")
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"], help="length of the timed window"
    )
    parser.add_argument(
        "--ticks",
        type=int,
        help="time exactly this many steps instead: counts, bytes and the digest then repeat",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer run")
    parser.add_argument("--trace-out", help="write the spans here as Chrome trace-event JSON")
    parser.add_argument("--smoke", action="store_true", help="tiny worlds, one set-up")
    parser.add_argument("--out", help="write the full result JSON here (default without --workload: e2e_result.json)")
    parser.add_argument("--repeat", type=int, default=1, help="without --workload: untraced runs of each")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args, contract)
    args.out = args.out or "e2e_result.json"
    return run_all(args)


if __name__ == "__main__":
    # ``src`` is found from this file, so the command names nothing outside
    # the benchmark's own directory; without it the import below fails and
    # the process exits non-zero before printing any result.
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    raise SystemExit(main())
