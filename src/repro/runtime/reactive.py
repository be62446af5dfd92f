"""Reactive / event-driven scripting (Section 3.2).

Instead of starting every script with a ladder of ``if`` statements that
decode what happened last tick, scripts may register *handlers*: a
condition over an object's state plus an action.  At the end of the update
phase the dispatcher evaluates every handler's condition against the new
state; handlers whose condition holds

* produce effect assignments that take part in the **next** tick (exactly
  the semantics the paper sketches: "those handlers with conditions that
  evaluate to true would be executed and set some effects for the next
  tick"), and/or
* interrupt multi-tick intentions by resetting their program counter
  (the "resumable exception" model).

Conditions and actions may be written either as SGL expressions/snippets or
as plain Python callables; both forms read the same state rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.sgl.ast_nodes import SglExpression
from repro.sgl.ir import EffectAssignment

__all__ = ["Handler", "FiredHandler", "ReactiveDispatcher"]

#: A condition is either an SGL expression or a Python predicate over the row.
Condition = SglExpression | Callable[[Mapping[str, Any]], bool]
#: An action returns effect assignments for the next tick (possibly empty).
Action = Callable[[Mapping[str, Any]], Iterable[EffectAssignment]]


@dataclass(frozen=True)
class Handler:
    """A registered reactive handler."""

    name: str
    class_name: str
    condition: Any
    action: Action | None = None
    #: Multi-tick scripts whose program counter resets when this fires.
    interrupts: tuple[str, ...] = ()
    #: Higher priority handlers are evaluated first.
    priority: int = 0


@dataclass(frozen=True)
class FiredHandler:
    """One handler firing for one object during one tick."""

    handler: Handler
    object_id: Any


@dataclass
class ReactiveDispatcher:
    """Evaluates handlers after the update phase and queues their effects."""

    handlers: list[Handler] = field(default_factory=list)
    #: Effects produced by the last dispatch; the world feeds them into the
    #: next tick's effect step.
    pending_effects: list[EffectAssignment] = field(default_factory=list)
    #: Handlers that fired during the last dispatch (for the debugger).
    last_fired: list[FiredHandler] = field(default_factory=list)

    def register(self, handler: Handler) -> None:
        self.handlers.append(handler)
        self.handlers.sort(key=lambda h: -h.priority)

    def handlers_for(self, class_name: str) -> list[Handler]:
        return [h for h in self.handlers if h.class_name == class_name]

    def dispatch(
        self,
        class_name: str,
        rows: Sequence[Mapping[str, Any]],
        evaluate_condition: Callable[[Any, str, Mapping[str, Any]], bool],
        reset_pc: Callable[[str, Any], None],
    ) -> list[FiredHandler]:
        """Evaluate handlers of *class_name* against post-update *rows*.

        ``evaluate_condition(condition, class_name, row)`` abstracts over
        SGL-expression vs. callable conditions (the world supplies it);
        ``reset_pc(script_name, object_id)`` performs interrupt resets.
        Returns the handlers that fired; their produced effects are appended
        to :attr:`pending_effects`.
        """
        fired: list[FiredHandler] = []
        for handler in self.handlers_for(class_name):
            for row in rows:
                try:
                    triggered = evaluate_condition(handler.condition, class_name, row)
                except Exception:
                    triggered = False
                if not triggered:
                    continue
                fired.append(FiredHandler(handler, row["id"]))
                if handler.action is not None:
                    self.pending_effects.extend(handler.action(row))
                for script_name in handler.interrupts:
                    reset_pc(script_name, row["id"])
        self.last_fired.extend(fired)
        return fired

    def drain_effects(self) -> list[EffectAssignment]:
        """Return and clear the effects queued for the next tick."""
        effects = self.pending_effects
        self.pending_effects = []
        return effects

    def clear_fired(self) -> None:
        self.last_fired = []
