"""Tick-boundary inspection and per-NPC effect tracing (Section 3.3).

The paper's desiderata for debugging SGL:

* "Developers should be able to inspect the value of state attributes at
  tick boundaries" — :meth:`TickInspector.state_of` /
  :meth:`TickInspector.diff_since`.
* "Developers should be able to select an individual NPC and view the
  effects assigned to it" — :meth:`TickInspector.effects_of`, which reports
  the combined value *and* how many raw assignments produced it.
* Bridging the gap between the imperative script and the relational plan —
  :func:`explain_script_plans` prints, for every effect-assignment site of
  a script, the logical plan the compiler generated and the physical plan
  the optimizer chose, annotated with runtime row counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.runtime.world import ExecutionMode, GameWorld, TickReport

__all__ = ["EffectTrace", "TickInspector", "explain_script_plans"]


@dataclass(frozen=True)
class EffectTrace:
    """The combined effects one object received during the last tick."""

    class_name: str
    object_id: Any
    values: Mapping[str, Any]
    assignment_counts: Mapping[str, int]

    def __str__(self) -> str:
        parts = [f"{self.class_name}#{self.object_id}:"]
        if not self.values:
            parts.append("  (no effects assigned)")
        for effect, value in sorted(self.values.items()):
            count = self.assignment_counts.get(effect, 0)
            parts.append(f"  {effect} = {value!r}  ({count} assignment(s))")
        return "\n".join(parts)


@dataclass
class TickInspector:
    """Inspects a :class:`GameWorld` at tick boundaries."""

    world: GameWorld
    _baselines: dict[int, dict[str, list[dict[str, Any]]]] = field(default_factory=dict)

    # -- state at tick boundaries -----------------------------------------------------------

    def state_of(self, class_name: str, object_id: Any) -> dict[str, Any] | None:
        """Current state attributes of one object."""
        return self.world.get_object(class_name, object_id)

    def capture_baseline(self) -> int:
        """Remember the current state; returns a baseline id for diffing."""
        baseline_id = self.world.tick_count
        self._baselines[baseline_id] = {
            class_name: self.world.objects(class_name)
            for class_name in self.world.class_names()
        }
        return baseline_id

    def diff_since(self, baseline_id: int) -> dict[str, dict[Any, dict[str, tuple[Any, Any]]]]:
        """Per-class, per-object attribute changes since a baseline.

        Returns ``{class: {object id: {attribute: (old, new)}}}`` containing
        only attributes whose value changed.
        """
        baseline = self._baselines.get(baseline_id, {})
        diff: dict[str, dict[Any, dict[str, tuple[Any, Any]]]] = {}
        for class_name, old_rows in baseline.items():
            old_by_id = {row["id"]: row for row in old_rows}
            for row in self.world.objects(class_name):
                old = old_by_id.get(row["id"])
                if old is None:
                    continue
                changes = {
                    attr: (old[attr], row[attr])
                    for attr in row
                    if attr in old and old[attr] != row[attr]
                }
                if changes:
                    diff.setdefault(class_name, {})[row["id"]] = changes
        return diff

    # -- per-NPC effect traces ---------------------------------------------------------------

    def effects_of(self, class_name: str, object_id: Any) -> EffectTrace:
        """The effects combined for one object during the most recent tick."""
        combined = self.world.last_effects
        return EffectTrace(
            class_name=class_name,
            object_id=object_id,
            values=dict(combined.for_object(class_name, object_id)),
            assignment_counts=dict(
                combined.assignment_counts.get((class_name, object_id), {})
            ),
        )

    def objects_with_effects(self, class_name: str) -> list[Any]:
        return self.world.last_effects.objects_with_effects(class_name)

    # -- catalogue overview ----------------------------------------------------------------------

    def table_summary(self) -> Mapping[str, int]:
        """Row counts of every generated table (maps attributes back to SGL)."""
        return self.world.catalog.summary()

    # -- tick timings and plan-cache traffic -----------------------------------------------------

    def tick_counters(self) -> dict[str, Any]:
        """Timings and engine counters of the most recent tick.

        Beyond the step timings this surfaces the previously invisible
        bookkeeping: how long the index-advisor/replan step took
        (``advisor_seconds``), how the executor's plan cache behaved
        (``plan_cache_hits`` / ``plan_cache_misses`` — a miss after warmup
        means something invalidated plans), what tick-wide sharing
        bought (``shared_subplans``, ``shared_evaluations_saved``,
        ``fused_effect_rows``), what the subscription flush phase
        streamed (``flush_seconds``, ``subscription_messages``,
        ``subscription_delta_rows``), what the WAL persist phase
        wrote (``persist_seconds``, ``wal_bytes``, ``wal_delta_rows`` —
        all zero when no WAL is attached), and what the tick's recursive
        fixpoint plans iterated (``fixpoint_rounds`` semi-naive rounds
        feeding ``fixpoint_delta_rows`` frontier rows — per-round work
        proportional to the delta — plus ``fixpoint_warm_restarts`` and
        ``fixpoint_cache_hits``).  In a shard worker the exchange counters
        (``exchange_bytes``/``exchange_rows`` wire traffic sent,
        ``halo_rows`` ghosts installed, ``handoff_rows`` ownership
        transfers) are stamped by the shard runtime; they stay zero in a
        single-process world.  ``engine_config`` records the
        active :class:`~repro.engine.config.EngineConfig`, so any number
        taken from these counters carries exactly which engine paths
        produced it.

        Before the first tick the full schema is returned **zeroed**
        (``tick`` = -1) instead of an empty dict, so scrapers and
        dashboards see a stable key set from the moment the world exists.
        """
        report = (
            self.world.reports[-1] if self.world.reports else TickReport(tick=-1)
        )
        counters = report.as_dict()
        counters["engine_config"] = self.world.config.as_dict()
        return counters

    def sharing_report(self) -> dict[str, Any]:
        """The tick pipeline's shared-subplan DAG and fusion decisions."""
        return self.world.executor.tick_sharing_report()


def explain_script_plans(world: GameWorld, script_name: str, *, analyze: bool = False) -> str:
    """Render the compiled plans of one script, one block per effect site.

    With ``analyze=True`` the physical plans include observed row counts and
    per-operator timings from the executions so far, which is the closest
    analogue of stepping through an imperative script when the runtime is a
    relational engine.
    """
    if world.mode is not ExecutionMode.COMPILED:
        return f"script {script_name!r} runs interpreted; no compiled plans to show"
    compiled = world.compiled.script(script_name)
    sections: list[str] = []
    for segment_index in sorted(compiled.queries_by_segment):
        for query in compiled.queries_by_segment[segment_index]:
            planned = world.executor.prepare(query.plan)
            header = (
                f"-- segment {segment_index} | effect {query.target_class}.{query.effect} "
                f"| {query.description}"
            )
            sections.append(header)
            sections.append(planned.explain(analyze=analyze))
    return "\n".join(sections) if sections else f"script {script_name!r} produces no effects"
