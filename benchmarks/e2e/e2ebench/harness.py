"""Set-up, the timed window, the checks, and the metrics computed from them.

One workload runs like this (:func:`run_workload`):

1. set up ``setups`` times, tearing down in between, and keep the last one
   (``setup_s`` is the median — set-up happens once per process in real life
   but one sample of it is too noisy to bound);
2. ``gc.collect()``, then step the closed loop for ``seconds`` (or exactly
   ``ticks`` steps): the next step starts when the previous one returned,
   with one ``await asyncio.sleep(0)`` in between, the way
   ``SubscriptionServer.run(tick_interval=0)`` drives it;
3. outside the window: drain the client, run the correctness checks,
   recover the WAL into a fresh world, tear down.

With a tracer the window alternates blocks of traced and untraced steps, so
the tracing overhead is measured inside one run, against the same world.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from repro.service.server import SubscriptionServer
from repro.shard import ShardedWorld

from e2ebench import checks
from e2ebench.spans import Tracer
from e2ebench.workloads import WARMUP_STEPS, WORKLOADS, Workload

__all__ = ["run_workload", "blocks_of", "quietest", "CHECKPOINT_INTERVAL"]

CHECKPOINT_INTERVAL = 50
#: Steps per traced / untraced block of a traced run.  Odd on purpose: with
#: a period that divides the checkpoint interval every checkpoint would
#: fall on the same side.
TRACE_BLOCK = 7
#: The window is cut into this many blocks of consecutive steps and the
#: timing metrics are taken from the ``QUIET_BLOCKS`` best of them.  Other
#: tenants of a shared box only ever add time, in bursts of seconds; over
#: ten runs the whole-window median tick moved 7 % (quartile to quartile)
#: and the mean of the three quietest block medians 2.9 %.
BLOCKS = 10
QUIET_BLOCKS = 3

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "src")
_CLIENT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "client.py")


def pin(pid: int, cpus: Sequence[int], slot: int) -> None:
    """Bind process *pid* to the *slot*-th of *cpus* (no-op with fewer than two).

    The server takes slot 0 and its client slot 1; shard workers take one
    each.  Left to the scheduler, the client is often woken on the server's
    core by each socket write and preempts it there: the same commit
    measured a ``mover_fanout`` step at 76 ms in one hour and 62 ms in the
    next, at equal CPU time.
    """
    if len(cpus) > 1:
        os.sched_setaffinity(pid, {cpus[slot % len(cpus)]})


@contextlib.contextmanager
def recording(tracer: Tracer | None, *, on: bool = True) -> Iterator[None]:
    """Spans are recorded inside the block (when there is a tracer and *on*)."""
    if tracer is not None:
        tracer.active = on
    try:
        yield
    finally:
        if tracer is not None:
            tracer.active = False


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p95(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) >= 2 else _median(values)


@dataclass
class Window:
    """What the timed window recorded, one entry per step."""

    start: float = 0.0
    step_seconds: list[float] = field(default_factory=list)
    #: ``perf_counter()`` when each step (and its ``sleep(0)``) was over.
    ends: list[float] = field(default_factory=list)
    traced: list[bool] = field(default_factory=list)
    #: ``process_time()`` of this process at the same moments.
    cpu_ends: list[float] = field(default_factory=list)
    cpu_start: float = 0.0
    self_rss_kb: int = 0
    #: Steps that raised (the window stops at the first one).
    raised: int = 0

    @property
    def steps(self) -> int:
        return len(self.step_seconds)

    def periods(self) -> list[float]:
        """Per step: the time from the previous step's end to its own."""
        return [end - prev for prev, end in zip([self.start, *self.ends], self.ends)]

    def cpu_periods(self) -> list[float]:
        """Per step: this process's CPU seconds over the same interval."""
        return [end - prev for prev, end in zip([self.cpu_start, *self.cpu_ends], self.cpu_ends)]


def blocks_of(values: Sequence[float], blocks: int = BLOCKS) -> list[Sequence[float]]:
    """*values* cut into *blocks* equal runs of consecutive steps (a short tail is dropped)."""
    size = max(1, len(values) // blocks)
    return [values[k : k + size] for k in range(0, len(values) - size + 1, size)]


def quietest(block_values: Sequence[float], *, highest: bool = False) -> float:
    """Mean of the ``QUIET_BLOCKS`` lowest (or highest) per-block values."""
    ordered = sorted(block_values, reverse=highest)
    return statistics.fmean(ordered[:QUIET_BLOCKS])


class ClientProcess:
    """The load client (``client.py``) and the pipe protocol to it."""

    def __init__(self, process: asyncio.subprocess.Process):
        self.process = process
        self.ids: list[list[int]] = []

    @classmethod
    async def start(
        cls, address: tuple[str, int], requests: list[list[dict[str, Any]]], cpus: Sequence[int]
    ) -> "ClientProcess":
        env = dict(os.environ, PYTHONPATH=os.path.abspath(_SRC))
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            _CLIENT,
            address[0],
            str(address[1]),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 28,  # the final report is one long line
            env=env,
        )
        pin(process.pid, cpus, 1)
        client = cls(process)
        try:
            client.ids = (await client._ask({"cmd": "subscribe", "connections": requests}))["ids"]
        except BaseException:
            await client.stop()
            raise
        return client

    async def _ask(self, command: dict[str, Any]) -> dict[str, Any]:
        assert self.process.stdin is not None and self.process.stdout is not None
        self.process.stdin.write(json.dumps(command).encode() + b"\n")
        await self.process.stdin.drain()
        line = await self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the client exited with code {await self.process.wait()}")
        return json.loads(line)

    async def finish(self) -> dict[str, Any]:
        """Everything the server wrote is applied; returns the client's report."""
        return await self._ask({"cmd": "finish"})

    async def stop(self) -> None:
        if self.process.returncode is None:
            if self.process.stdin is not None:
                self.process.stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), 5.0)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()


class ServedRig:
    """A world in this process: WAL, TCP server and client process as the workload asks."""

    root_span = "SubscriptionServer.step"

    def __init__(self, workload: Workload, work_dir: str, tracer: Tracer | None):
        self.workload = workload
        self.wal_dir = os.path.join(work_dir, "wal")
        self.tracer = tracer
        self.world: Any = None
        self.server: SubscriptionServer | None = None
        self.client: ClientProcess | None = None
        #: ``perf_counter()`` at each tick's commit, by tick number.
        self.commit_stamps: dict[int, float] = {}
        self.views_at_start: dict[str, int] = {}
        #: Parse + analyse + compile of this set-up (traced runs only).
        self.compile_seconds = 0.0
        #: CPUs this process may use; restored by :meth:`teardown`.
        self.cpus = sorted(os.sched_getaffinity(0))
        if not workload.observers:
            self.root_span = "GameWorld.tick"

    async def setup(self) -> None:
        workload = self.workload
        first_span = len(self.tracer.names) if self.tracer is not None else 0
        with recording(self.tracer):
            self.world = world = workload.build()
            world.tick_observers.append(self._stamp_commit)
            if workload.wal:
                shutil.rmtree(self.wal_dir, ignore_errors=True)
                world.attach_wal(self.wal_dir, checkpoint_interval=CHECKPOINT_INTERVAL)
            if workload.metrics:
                world.attach_metrics()
            if workload.observers:
                self.server = SubscriptionServer(world)
                await self.server.start()
                pin(0, self.cpus, 0)
                self.client = await ClientProcess.start(
                    self.server.address, workload.requests(), self.cpus
                )
            for _ in range(WARMUP_STEPS):
                await self.step()
            self.views_at_start = self._view_counters()
        if self.tracer is not None:
            self.compile_seconds = self.tracer.total_seconds(
                ("parse_program", "analyze_program", "SGLCompiler.compile_program"),
                first_span,
                len(self.tracer.names),
            )

    def _view_counters(self) -> dict[str, int]:
        """Cumulative refresh counters summed over the executor's incremental views."""
        views = self.world.executor.incremental_report()
        return {
            f"engine.incremental.{name}": sum(view[name] for view in views)
            for name in ("delta_refreshes", "full_refreshes", "noop_hits", "guard_trips")
        }

    def _stamp_commit(self, report: Any) -> None:
        self.commit_stamps[report.tick] = time.perf_counter()

    async def step(self) -> float:
        """Drive, then one served step; returns the step's own seconds."""
        self.workload.drive(self.world)
        started = time.perf_counter()
        if self.server is not None:
            await self.server.step()
        else:
            self.world.tick()
        return time.perf_counter() - started

    def worker_cpu_seconds(self, steps: int) -> list[float]:
        """Per step of the window: CPU seconds spent in other processes of the program."""
        return [0.0] * steps

    async def finish(self, window: Window) -> dict[str, Any]:
        """Checks and after-the-window measurements; see :func:`run_workload`."""
        world, workload = self.world, self.workload
        reports = world.reports[len(world.reports) - window.steps :]
        out: dict[str, Any] = {"problems": [], "reports": reports}
        # Views refresh every tick: window totals.  Kernels are compiled in
        # the warm-up and only looked up afterwards: totals since the world
        # was built (a window total would read 0).
        kernels = world.executor.kernel_report()
        out["engine_counters"] = {
            "engine.compile.kernels_compiled": kernels["compiled"],
            "engine.compile.kernel_hits": kernels["hits"],
            "engine.compile.kernel_declined": kernels["declined"],
            **{
                name: value - self.views_at_start[name]
                for name, value in self._view_counters().items()
            },
        }
        problems: list[str] = out["problems"]

        if self.client is not None:
            out["client"] = client = await self.client.finish()
            requests = workload.requests()
            observers = {
                sub_id: request["observer_id"]
                for ids, conn_requests in zip(self.client.ids, requests)
                for sub_id, request in zip(ids, conn_requests)
            }
            replicas = {int(sub_id): rows for sub_id, rows in client["rows"].items()}
            problems += checks.check_replicas(
                replicas, observers, world.objects(workload.watched), workload.radius
            )

        out["state_digest"] = checks.state_digest(checks.world_state(world))
        if workload.wal:
            out["wal"] = world.wal.stats()
            world.detach_wal()
            with recording(self.tracer):
                recovery_problems, out["recover_s"] = checks.check_recovery(
                    world, workload.build(), self.wal_dir
                )
            problems += recovery_problems
        problems += workload.check(world, reports)
        problems += checks.check_work_is_stationary(
            [
                r.effect_assignments
                + r.state_updates_applied
                + r.subscription_delta_rows
                + r.wal_delta_rows
                + r.transactions_committed
                for r in reports
            ]
        )
        return out

    async def teardown(self) -> None:
        try:
            if self.client is not None:
                await self.client.stop()
            if self.server is not None:
                await self.server.stop()
            if self.world is not None:
                self.world.detach_wal()
        finally:
            os.sched_setaffinity(0, self.cpus)
            shutil.rmtree(self.wal_dir, ignore_errors=True)

    def children_rss_kb(self) -> int:
        return 0


class ShardedRig:
    """A ``ShardedWorld`` fleet: the coordinator here, one process per shard."""

    root_span = "ShardedWorld.tick"

    def __init__(self, workload: Any, work_dir: str, tracer: Tracer | None):
        self.workload = workload
        self.fleet: ShardedWorld | None = None

    async def setup(self) -> None:
        workload = self.workload
        self.fleet = fleet = ShardedWorld(workload.factory, workload.spec, n_shards=workload.shards)
        cpus = sorted(os.sched_getaffinity(0))
        for slot, worker in enumerate(multiprocessing.active_children()):
            pin(worker.pid, cpus, slot)
        fleet.load({"Unit": workload.rows})
        for k, center in enumerate(workload.centers):
            fleet.subscribe_aoi(f"sub-{k}", "Unit", radius=workload.radius, center=center)
        fleet.attach_metrics()
        for _ in range(WARMUP_STEPS):
            await self.step()

    async def step(self) -> float:
        assert self.fleet is not None
        started = time.perf_counter()
        self.fleet.tick()
        return time.perf_counter() - started

    def worker_cpu_seconds(self, steps: int) -> list[float]:
        assert self.fleet is not None
        reports = self.fleet.reports[len(self.fleet.reports) - steps :]
        return [sum(report.worker_cpu_seconds) for report in reports]

    async def finish(self, window: Window) -> dict[str, Any]:
        assert self.fleet is not None
        reports = self.fleet.reports[len(self.fleet.reports) - window.steps :]
        state = {name: list(rows.values()) for name, rows in self.fleet.gather_state().items()}
        problems = []
        ids = sorted(row["id"] for row in state.get("Unit", []))
        if ids != list(range(self.workload.n)):
            problems.append(
                f"the fleet holds {len(ids)} units, {self.workload.n} were loaded: "
                "a handoff lost or duplicated a row"
            )
        problems += checks.check_work_is_stationary(
            [
                sum(worker.get("effect_assignments", 0) for worker in report.per_worker)
                + report.subscription_delta_rows
                for report in reports
            ]
        )
        return {
            "problems": problems,
            "shard_reports": reports,
            "state_digest": checks.state_digest(state),
        }

    async def teardown(self) -> None:
        if self.fleet is not None:
            self.fleet.close()

    def children_rss_kb(self) -> int:
        """Largest worker's peak RSS; known once the workers are reaped."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


async def measure(
    rig: Any, seconds: float | None, ticks: int | None, tracer: Tracer | None
) -> Window:
    """The timed window: closed loop, unpaced."""
    window = Window()
    gc.collect()
    window.cpu_start = time.process_time()
    window.start = time.perf_counter()
    deadline = window.start + (seconds or 0.0)
    while window.steps < ticks if ticks is not None else time.perf_counter() < deadline:
        traced = tracer is not None and (window.steps // TRACE_BLOCK) % 2 == 1
        try:
            with recording(tracer, on=traced):
                step_seconds = await rig.step()
        except Exception:  # a failed tick is a result, not a crash of the benchmark
            traceback.print_exc()
            window.raised += 1
            break
        await asyncio.sleep(0)
        window.step_seconds.append(step_seconds)
        window.ends.append(time.perf_counter())
        window.cpu_ends.append(time.process_time())
        window.traced.append(traced)
    window.self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return window


async def run_workload(
    name: str,
    seed: int,
    *,
    seconds: float | None = None,
    ticks: int | None = None,
    trace: bool = False,
    smoke: bool = False,
    setups: int = 3,
    work_dir: str,
    trace_out: str | None = None,
) -> dict[str, Any]:
    """Run one workload; returns its result record (see the README)."""
    workload = WORKLOADS[name](seed, smoke=smoke)
    tracer = Tracer() if trace else None
    os.makedirs(work_dir, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        rig_class = ShardedRig if workload.shards else ServedRig
        setup_seconds = []
        for attempt in range(setups):
            rig = rig_class(workload, work_dir, tracer)
            started = time.perf_counter()
            try:
                await rig.setup()
                setup_seconds.append(time.perf_counter() - started)
                if attempt < setups - 1:
                    await rig.teardown()
            except BaseException:
                await rig.teardown()
                raise
        try:
            window = await measure(rig, seconds, ticks, tracer)
            if window.steps == 0:
                raise RuntimeError("the window held no complete step")
            outcome = await rig.finish(window)
        finally:
            await rig.teardown()
        peak_rss_kb = window.self_rss_kb + rig.children_rss_kb()
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    metrics = end_to_end_metrics(window, rig, setup_seconds, peak_rss_kb)
    metrics.update(layer_metrics(window, rig, outcome, tracer))
    problems = outcome["problems"]
    if tracer is not None and tracer.self_time_gap() > 0.01:
        problems.append(
            f"self times miss the root spans by {tracer.self_time_gap():.1%}: spans do not nest"
        )
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "ticks": window.steps,
        "ops": window.steps + window.raised,
        "failed": window.raised + (window.steps if problems else 0),
        "problems": problems,
        "state_digest": outcome["state_digest"],
        "setup_seconds": setup_seconds,
        "step_seconds": window.step_seconds,
        "periods": window.periods(),
        "metrics": metrics,
    }
    if tracer is not None:
        record["self_time_gap"] = tracer.self_time_gap()
        record["self_table"] = tracer.self_table()
        if trace_out:
            tracer.export(trace_out)
    return record


def end_to_end_metrics(
    window: Window, rig: Any, setup_seconds: Sequence[float], peak_rss_kb: int
) -> dict[str, float]:
    cpu = [
        own + workers
        for own, workers in zip(window.cpu_periods(), rig.worker_cpu_seconds(window.steps))
    ]
    return {
        "setup_s": _median(setup_seconds),
        "ticks_per_s": quietest(
            [len(block) / sum(block) for block in blocks_of(window.periods())], highest=True
        ),
        "tick_p50_ms": quietest([_median(block) for block in blocks_of(window.step_seconds)]) * 1e3,
        "cpu_ms_per_tick": quietest([statistics.fmean(block) for block in blocks_of(cpu)]) * 1e3,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def layer_metrics(
    window: Window, rig: Any, outcome: dict[str, Any], tracer: Tracer | None
) -> dict[str, float]:
    """Every per-layer metric this run can know; see the README for each."""
    medians = [_median(block) for block in blocks_of(window.step_seconds)]
    out: dict[str, float] = {
        "runtime.world.tick_window_p50_ms": _median(window.step_seconds) * 1e3,
        "runtime.world.tick_p95_ms": _p95(window.step_seconds) * 1e3,
        "runtime.world.tick_drift_share": medians[-1] / medians[0] - 1.0,
    }

    reports = outcome.get("reports")
    if reports:
        _world_counters(out, reports, outcome)
    client = outcome.get("client")
    if client:
        _client_metrics(out, rig, reports, client)
    shard_reports = outcome.get("shard_reports")
    if shard_reports:
        _shard_metrics(out, shard_reports)
    if tracer is not None:
        _span_metrics(out, window, rig, reports or [], tracer)
    return out


def _world_counters(out: dict[str, float], reports: Sequence[Any], outcome: dict[str, Any]) -> None:
    steps = len(reports)

    def per_tick(attribute: str) -> float:
        return sum(getattr(report, attribute) for report in reports) / steps

    hits = sum(r.plan_cache_hits for r in reports)
    misses = sum(r.plan_cache_misses for r in reports)
    out["engine.executor.plan_cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    out.update(outcome["engine_counters"])
    submitted = sum(r.transactions_submitted for r in reports)
    out["runtime.transactions.commit_share"] = (
        sum(r.transactions_committed for r in reports) / submitted if submitted else 0.0
    )
    out["runtime.world.effect_assignments_per_tick"] = per_tick("effect_assignments")
    out["runtime.world.state_updates_per_tick"] = per_tick("state_updates_applied")
    out["service.subscriptions.delta_rows_per_tick"] = per_tick("subscription_delta_rows")
    out["service.subscriptions.messages_per_tick"] = per_tick("subscription_messages")
    wal_bytes = sum(r.wal_bytes for r in reports)
    wal_rows = sum(r.wal_delta_rows for r in reports)
    out["wal_bytes_per_tick"] = wal_bytes / steps
    out["persistence.log.delta_rows_per_tick"] = wal_rows / steps
    out["persistence.log.bytes_per_delta_row"] = wal_bytes / wal_rows if wal_rows else 0.0
    wal = outcome.get("wal")
    if wal:
        out["persistence.log.disk_bytes_total"] = wal["bytes"]
        out["persistence.log.checkpoints"] = (
            wal["commits"] // CHECKPOINT_INTERVAL - (wal["commits"] - steps) // CHECKPOINT_INTERVAL
        )
        out["recover_s"] = outcome["recover_s"]


def _client_metrics(
    out: dict[str, float], rig: Any, reports: Sequence[Any], client: dict[str, Any]
) -> None:
    steps = len(reports)
    window_ticks = {report.tick for report in reports}
    latencies = [
        stamp - rig.commit_stamps[tick] for tick, stamp in client["received"] if tick in window_ticks
    ]
    out["delta_latency_p50_ms"] = _median(latencies) * 1e3
    out["service.server.delta_latency_p95_ms"] = _p95(latencies) * 1e3
    out["service.server.delta_latency_samples"] = len(latencies)
    wire_bytes = sum(
        count for tick, count in client["bytes_by_tick"].items() if int(tick) in window_ticks
    )
    out["wire_bytes_per_tick"] = wire_bytes / steps
    delta_rows = sum(report.subscription_delta_rows for report in reports)
    out["service.protocol.bytes_per_delta_row"] = wire_bytes / delta_rows if delta_rows else 0.0
    out["service.protocol.client_apply_ms"] = (
        _median(
            [
                seconds
                for tick, seconds in client["apply_seconds_by_tick"].items()
                if int(tick) in window_ticks
            ]
        )
        * 1e3
    )
    out["service.subscriptions.resyncs"] = client["resyncs"]


def _shard_metrics(out: dict[str, float], reports: Sequence[Any]) -> None:
    def med(values: Any) -> float:
        return _median(list(values))

    out["shard.coordinator.critical_path_ms"] = med(r.critical_path_seconds for r in reports) * 1e3
    out["shard.worker.max_cpu_ms"] = med(max(r.worker_cpu_seconds) for r in reports) * 1e3
    out["shard.worker.cpu_skew"] = med(
        max(r.worker_cpu_seconds) / statistics.fmean(r.worker_cpu_seconds) for r in reports
    )
    out["shard.coordinator.cpu_ms"] = med(r.coordinator_cpu_seconds for r in reports) * 1e3
    out["shard.coordinator.barrier_wait_ms"] = (
        med(r.wall_seconds - max(r.worker_wall_seconds) for r in reports) * 1e3
    )
    steps = len(reports)
    out["shard.wire.exchange_bytes_per_tick"] = sum(r.exchange_bytes for r in reports) / steps
    out["shard.worker.halo_rows_per_tick"] = sum(r.halo_rows for r in reports) / steps
    out["shard.worker.handoff_rows_per_tick"] = sum(r.handoff_rows for r in reports) / steps
    out["service.subscriptions.delta_rows_per_tick"] = (
        sum(r.subscription_delta_rows for r in reports) / steps
    )
    out["service.subscriptions.messages_per_tick"] = (
        sum(r.subscription_messages for r in reports) / steps
    )
    out["runtime.world.effect_assignments_per_tick"] = (
        sum(w.get("effect_assignments", 0) for r in reports for w in r.per_worker) / steps
    )


def _span_metrics(
    out: dict[str, float], window: Window, rig: Any, reports: Sequence[Any], tracer: Tracer
) -> None:
    periods = window.periods()
    traced = [p for p, flag in zip(periods, window.traced) if flag]
    untraced = [p for p, flag in zip(periods, window.traced) if not flag]
    if traced and untraced:
        out["obs.trace_overhead_share"] = 1.0 - _median(untraced) / _median(traced)
    if reports:
        out["sgl.compile_s"] = rig.compile_seconds
    served = getattr(rig, "server", None) is not None
    by_tick = {report.tick: report for report in reports}
    columns: dict[str, list[float]] = {}

    def add(name: str, seconds: float) -> None:
        columns.setdefault(name, []).append(seconds * 1e3)

    for entry in tracer.per_root(rig.root_span):
        report = by_tick.get(entry["tick"])
        if report is None:
            continue  # a warm-up step, or a sharded tick (no TickReport here)
        total, own = entry["total"], entry["self"]
        # The transaction engine combines per request inside compute_all;
        # only the tick's own combine is the combine phase.
        combine = entry["direct"]["EffectStore.combine"]
        tick = total["GameWorld.tick"]
        add("engine.executor.execute_tick_ms", own["Executor.execute_tick"])
        add("engine.executor.prepare_tick_ms", own["Executor.prepare_tick"])
        add(
            "runtime.world.effect_glue_ms",
            report.effect_step_seconds - total["Executor.execute_tick"],
        )
        add("runtime.effects.combine_ms", combine)
        add("runtime.updates.compute_all_ms", own["OwnershipRegistry.compute_all"])
        add("runtime.transactions.compute_updates_ms", total["TransactionEngine.compute_updates"])
        add(
            "runtime.world.update_apply_ms",
            report.update_step_seconds - combine - total["OwnershipRegistry.compute_all"],
        )
        add(
            "runtime.world.other_ms",
            tick
            - report.effect_step_seconds
            - report.update_step_seconds
            - report.flush_seconds
            - report.persist_seconds,
        )
        add("service.subscriptions.flush_ms", total["SubscriptionManager.flush"])
        if served:
            drain = entry["seconds"] - tick
            add("service.protocol.encode_ms", total["encode_message"])
            add("service.server.drain_ms", drain)
            add("service.server.socket_wait_ms", drain - total["encode_message"])
        add("persistence.log.commit_tick_ms", own["WorldWal.commit_tick"])
        if total["WorldWal.checkpoint"]:
            add("persistence.log.checkpoint_ms", total["WorldWal.checkpoint"])
        add("obs.collector.observe_ms", total["WorldMetrics.observe"])
        add("runtime.world.tick_ms", tick)
    for name, values in columns.items():
        out[name] = _median(values)
