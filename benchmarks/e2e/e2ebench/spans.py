"""Spans around the calls into each layer, recorded from the benchmark's side.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces public
callables on their classes and modules with wrappers and
:meth:`Tracer.uninstall` puts the originals back.  While
:attr:`Tracer.active` is false a wrapper calls straight through, which is
how a traced run interleaves traced and untraced blocks of ticks to measure
its own overhead.  Spans stay in memory; :meth:`Tracer.export` writes them
as Chrome trace-event JSON once the run is over.

The program is single-threaded and no wrapped callable runs in another
coroutine while a step is awaiting its sockets, so one stack is enough to
find each span's parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["TARGETS", "Tracer"]

#: (module, class or None, attribute): the layer boundaries.  A span is
#: named ``Class.attribute`` (or the bare function name).
TARGETS: tuple[tuple[str, str | None, str], ...] = (
    ("repro.runtime.world", None, "parse_program"),
    ("repro.runtime.world", None, "analyze_program"),
    ("repro.sgl.compiler", "SGLCompiler", "compile_program"),
    ("repro.runtime.world", "GameWorld", "tick"),
    ("repro.engine.executor", "Executor", "prepare_tick"),
    ("repro.engine.executor", "Executor", "execute_tick"),
    ("repro.runtime.effects", "EffectStore", "combine"),
    ("repro.runtime.updates", "OwnershipRegistry", "compute_all"),
    ("repro.runtime.transactions", "TransactionEngine", "compute_updates"),
    ("repro.service.subscriptions", "SubscriptionManager", "flush"),
    ("repro.service.server", None, "encode_message"),
    ("repro.service.server", "SubscriptionServer", "step"),
    ("repro.persistence.log", "WorldWal", "commit_tick"),
    ("repro.persistence.log", "WorldWal", "checkpoint"),
    ("repro.obs.collector", "WorldMetrics", "observe"),
    ("repro.engine.optimizer.adaptive", "IndexAdvisor", "end_tick"),
    ("repro.shard.coordinator", "ShardedWorld", "tick"),
    ("repro.persistence.replay", None, "recover_world"),
)

#: Spans that carry the tick number they belong to, and how to read it
#: off ``self`` before the call.
_TICK_OF: dict[str, Callable[[Any], int]] = {
    "GameWorld.tick": lambda world: world.tick_count,
    "SubscriptionServer.step": lambda server: server.world.tick_count,
    "ShardedWorld.tick": lambda fleet: fleet.tick_count + 1,
}


class Tracer:
    """Records nested spans as parallel lists (cheap to append to)."""

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ticks: list[int | None] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------------------

    def begin(self, name: str, tick: int | None) -> int:
        index = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.ticks.append(tick if tick is not None or parent < 0 else self.ticks[parent])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        popped = self._stack.pop()
        assert popped == index, "spans must close in the order they opened"

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tick_of = _TICK_OF.get(name)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                if not self.active:
                    return await fn(*args, **kwargs)
                index = self.begin(name, tick_of(args[0]) if tick_of else None)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.end(index)

            return traced_async

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name, tick_of(args[0]) if tick_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def install(self) -> None:
        """Wrap every target.  Do this before the world is built: a bound
        method handed out earlier (``tick_observers``) keeps the original."""
        for module_name, class_name, attribute in TARGETS:
            owner = importlib.import_module(module_name)
            name = attribute
            if class_name is not None:
                owner = getattr(owner, class_name)
                name = f"{class_name}.{attribute}"
            original = owner.__dict__[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def per_root(self, root_name: str) -> list[dict[str, Any]]:
        """One entry per *root_name* root span: its tick, its duration, and
        per span name beneath it the total seconds, the self seconds, and
        (``direct``) the seconds of spans opened by ``GameWorld.tick`` itself."""
        own = self.self_seconds()
        root_of: list[int] = []
        entries: dict[int, dict[str, Any]] = {}
        for index, parent in enumerate(self.parents):
            root = index if parent < 0 else root_of[parent]
            root_of.append(root)
            if parent < 0:
                if self.names[index] != root_name:
                    continue
                entries[index] = {
                    "tick": self.ticks[index],
                    "seconds": self.ends[index] - self.starts[index],
                    "total": defaultdict(float),
                    "self": defaultdict(float),
                    "direct": defaultdict(float),
                }
            entry = entries.get(root)
            if entry is not None:
                name = self.names[index]
                entry["total"][name] += self.ends[index] - self.starts[index]
                entry["self"][name] += own[index]
                if parent >= 0 and self.names[parent] == "GameWorld.tick":
                    entry["direct"][name] += self.ends[index] - self.starts[index]
        return list(entries.values())

    def total_seconds(self, names: tuple[str, ...], first: int, stop: int) -> float:
        """Summed duration of the spans ``first <= index < stop`` called one of *names*."""
        return sum(
            self.ends[index] - self.starts[index]
            for index in range(first, stop)
            if self.names[index] in names
        )

    def self_time_gap(self) -> float:
        """|sum of self times - sum of root spans| as a share of the latter."""
        roots = sum(
            self.ends[i] - self.starts[i] for i, parent in enumerate(self.parents) if parent < 0
        )
        return abs(sum(self.self_seconds()) - roots) / roots if roots else 0.0

    def self_table(self) -> list[tuple[str, int, float]]:
        """(name, calls, self seconds) per span name, largest first."""
        calls: dict[str, int] = defaultdict(int)
        seconds: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, self.self_seconds()):
            calls[name] += 1
            seconds[name] += own
        return sorted(((n, calls[n], seconds[n]) for n in calls), key=lambda row: -row[2])

    # -- export ------------------------------------------------------------------------

    def export(self, path: str) -> int:
        """Write Chrome trace-event JSON (open in Perfetto); returns the span count."""
        origin = min(self.starts, default=0.0)
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"span": index, "parent": parent, "tick": tick},
            }
            for index, (name, start, end, parent, tick) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ticks)
            )
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)
