"""Effect accumulation and combination (the ⊕ of the state-effect pattern).

During the effect step scripts only *propose* values; at the end of the
tick every effect variable's proposals are combined with the aggregate
function declared for it in the class definition (Section 2, Figure 1).
:class:`EffectStore` accumulates :class:`~repro.sgl.ir.EffectAssignment`
objects and produces the combined per-object values the update step reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.engine.aggregates import Accumulator, make_accumulator
from repro.engine.errors import ExecutionError
from repro.sgl.ast_nodes import ClassDecl
from repro.sgl.ir import EffectAssignment
from repro.sgl.semantics import COMBINATOR_ALIASES, resolve_combinator

__all__ = ["EffectStore", "CombinedEffects", "combinator_identity"]

#: Identity values reported for effects that received no assignments.
_IDENTITIES = {
    "sum": 0,
    "count": 0,
    "any": False,
    "all": True,
    "union": frozenset(),
    "collect": (),
}


def combinator_identity(combinator: str) -> Any:
    """The value an effect takes when nothing was assigned to it this tick."""
    return _IDENTITIES.get(COMBINATOR_ALIASES.get(combinator, combinator))


@dataclass
class CombinedEffects:
    """Combined effect values for one tick: (class, id) -> {effect: value}.

    Also records how many raw assignments fed each value, which the
    debugger's per-NPC effect inspector (Section 3.3) displays.
    """

    values: dict[tuple[str, Any], dict[str, Any]] = field(default_factory=dict)
    assignment_counts: dict[tuple[str, Any], dict[str, int]] = field(default_factory=dict)

    def for_object(self, class_name: str, object_id: Any) -> dict[str, Any]:
        return self.values.get((class_name, object_id), {})

    def value(self, class_name: str, object_id: Any, effect: str, default: Any = None) -> Any:
        return self.for_object(class_name, object_id).get(effect, default)

    def objects_with_effects(self, class_name: str) -> list[Any]:
        return [oid for (cls, oid) in self.values if cls == class_name]


class EffectStore:
    """Accumulates effect assignments during a tick and combines them."""

    def __init__(self, classes: Mapping[str, ClassDecl]):
        self._classes = dict(classes)
        self._accumulators: dict[tuple[str, Any, str], Accumulator] = {}
        self._counts: dict[tuple[str, Any, str], int] = {}

    # -- accumulation -----------------------------------------------------------------------

    def add(self, assignment: EffectAssignment) -> None:
        """Fold one assignment into the store.

        Set-inserts (``<=``) always combine with set union regardless of the
        declared combinator, matching the paper's container semantics.
        """
        combinator = self._combinator_for(assignment)
        key = (assignment.class_name, assignment.target_id, assignment.effect)
        accumulator = self._accumulators.get(key)
        if accumulator is None:
            accumulator = make_accumulator(combinator)
            self._accumulators[key] = accumulator
            self._counts[key] = 0
        accumulator.add(assignment.value)
        self._counts[key] += 1

    def add_all(self, assignments: Iterable[EffectAssignment]) -> None:
        for assignment in assignments:
            self.add(assignment)

    def add_partial(
        self,
        class_name: str,
        target_id: Any,
        effect: str,
        partial: Accumulator,
        count: int,
        *,
        set_insert: bool = False,
    ) -> None:
        """Fold a pre-combined group of assignments into the store.

        This is the sink half of in-engine effect aggregation
        (:class:`~repro.engine.operators.shared.EffectSinkOp`): one query's
        assignments to ``(target, effect)`` arrive already combined as a
        partial accumulator, plus the raw assignment ``count`` so the
        debugger's per-NPC counts match the row-at-a-time path exactly.
        Partials merge with :meth:`Accumulator.merge` — semantically
        lossless for every order-insensitive combinator (the only kind
        the runtime ever sink-fuses), though merging two queries' float
        sums reassociates addition and may differ from the row-at-a-time
        fold by rounding error, like delta-maintained aggregates already do.
        """
        key = (class_name, target_id, effect)
        combinator = self._resolve_combinator(class_name, effect, set_insert=set_insert)
        if partial.func != combinator:
            # The compiler resolves sink combinators through the same
            # resolve_combinator helper this store uses, so a mismatch
            # means the fused values were combined under the wrong ⊕ —
            # silently folding the collapsed result would corrupt effects.
            raise ExecutionError(
                f"effect sink combined {class_name}.{effect} with "
                f"{partial.func!r} but the declaration requires {combinator!r}"
            )
        accumulator = self._accumulators.get(key)
        if accumulator is None:
            # Adopt the partial wholesale — the common case.
            self._accumulators[key] = partial
            self._counts[key] = count
            return
        accumulator.merge(partial)
        self._counts[key] += count

    def _combinator_for(self, assignment: EffectAssignment) -> str:
        return self._resolve_combinator(
            assignment.class_name, assignment.effect, set_insert=assignment.set_insert
        )

    def _resolve_combinator(self, class_name: str, effect: str, *, set_insert: bool) -> str:
        return resolve_combinator(
            self._classes.get(class_name), effect, set_insert=set_insert
        )

    # -- results -------------------------------------------------------------------------------

    def combine(self) -> CombinedEffects:
        """Produce the combined values and reset nothing (idempotent)."""
        combined = CombinedEffects()
        for (class_name, object_id, effect), accumulator in self._accumulators.items():
            obj_key = (class_name, object_id)
            combined.values.setdefault(obj_key, {})[effect] = accumulator.result()
            combined.assignment_counts.setdefault(obj_key, {})[effect] = self._counts[
                (class_name, object_id, effect)
            ]
        return combined

    def retain(self, predicate: Callable[[str, Any], bool]) -> int:
        """Drop accumulated effects whose ``(class_name, target_id)`` fails
        *predicate*; return the number of dropped ``(target, effect)`` keys.

        The sharded engine uses this as its ownership filter: every worker
        runs the effect step over its owned rows plus replicated ghosts,
        then keeps only effects aimed at targets it owns, so each effect is
        applied exactly once fleet-wide without shipping accumulators.
        """
        doomed = [
            key for key in self._accumulators if not predicate(key[0], key[1])
        ]
        for key in doomed:
            del self._accumulators[key]
            del self._counts[key]
        return len(doomed)

    def clear(self) -> None:
        self._accumulators.clear()
        self._counts.clear()

    def __len__(self) -> int:
        return len(self._accumulators)
