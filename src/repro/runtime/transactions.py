"""The transaction engine (Section 3.1).

Scripts mark regions ``atomic`` and attach constraints over state
attributes (``account >= 0``).  During the update step the engine "is then
responsible for choosing a subset of the transactions issued during the
tick that do not violate any constraints.  The remaining transactions
abort, and their effect assignments are not applied."

The engine fits the update-component model: it owns the *constrained*
attributes it updates.  Non-transactional effect assignments to those
attributes are applied first (they always succeed, combined with the
declared combinators); transaction requests are then admitted greedily in a
deterministic order, each one validated against the tentative post-update
state including all previously admitted transactions, which prevents the
classic duplication ("duping") and negative-balance bugs the paper calls
out.  An abort replays the request's undo log, so admission costs
O(requests × writes), not O(requests × tentative state).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.engine.aggregates import Accumulator, make_accumulator
from repro.runtime.effects import CombinedEffects
from repro.runtime.updates import StateUpdate, UpdateComponent, WorldStateView
from repro.sgl.ast_nodes import ClassDecl, SglExpression
from repro.sgl.ir import EffectAssignment, TransactionRequest
from repro.sgl.semantics import resolve_combinator

__all__ = ["TransactionOutcome", "TransactionReport", "TransactionEngine"]

#: Signature of a constraint evaluator: (constraint, actor class, actor row
#: overlayed with tentative values) -> bool.
ConstraintEvaluator = Callable[[SglExpression, str, Mapping[str, Any]], bool]
#: A constraint compiled for one class: the state attributes it reads and a
#: function of their values whose truthiness is the verdict.  A compiler
#: returns ``None`` for a constraint only the evaluator can decide.
CompiledConstraint = tuple[tuple[str, ...], Callable[[tuple], Any]]
ConstraintCompiler = Callable[[SglExpression, str], "CompiledConstraint | None"]

#: "No entry": an attribute without a tentative value (undo log), a
#: constraint not compiled yet (cache).
_MISSING = object()


@dataclass(frozen=True)
class TransactionOutcome:
    """The fate of one transaction request."""

    request: TransactionRequest
    committed: bool
    reason: str = ""


@dataclass
class TransactionReport:
    """All outcomes of one tick's transaction processing (append via :meth:`add`)."""

    outcomes: list[TransactionOutcome] = field(default_factory=list)
    #: Constraint evaluations the compiled path left to the interpreter.
    interpreted_checks: int = 0
    commit_count: int = field(default=0, init=False)
    abort_count: int = field(default=0, init=False)

    def add(self, outcome: TransactionOutcome) -> None:
        self.outcomes.append(outcome)
        if outcome.committed:
            self.commit_count += 1
        else:
            self.abort_count += 1

    @property
    def committed(self) -> list[TransactionOutcome]:
        return [o for o in self.outcomes if o.committed]

    @property
    def aborted(self) -> list[TransactionOutcome]:
        return [o for o in self.outcomes if not o.committed]

    @property
    def abort_rate(self) -> float:
        total = len(self.outcomes)
        return 0.0 if total == 0 else self.abort_count / total


class _TentativeState:
    """A copy-on-write overlay of the constrained attributes over base rows
    fetched once.  Every write logs the value it replaced, so
    :meth:`rollback` restores values and dict order alike."""

    def __init__(self, state: WorldStateView):
        self._state = state
        self._base: dict[tuple[str, Any], Mapping[str, Any] | None] = {}
        self._overlay: dict[tuple[str, Any], dict[str, Any]] = {}
        self._undo: list[tuple[tuple[str, Any], str, Any]] = []

    def base_row(self, class_name: str, object_id: Any) -> Mapping[str, Any] | None:
        key = (class_name, object_id)
        if key not in self._base:
            self._base[key] = self._state.get_object(class_name, object_id)
        return self._base[key]

    def value(self, class_name: str, object_id: Any, attribute: str) -> Any:
        overlay = self._overlay.get((class_name, object_id))
        if overlay is not None and attribute in overlay:
            return overlay[attribute]
        row = self.base_row(class_name, object_id)
        return None if row is None else row.get(attribute)

    def row(self, class_name: str, object_id: Any) -> dict[str, Any] | None:
        base = self.base_row(class_name, object_id)
        if base is None:
            return None
        merged = dict(base)
        merged.update(self._overlay.get((class_name, object_id), {}))
        return merged

    def set(self, class_name: str, object_id: Any, attribute: str, value: Any) -> None:
        key = (class_name, object_id)
        values = self._overlay.setdefault(key, {})
        self._undo.append((key, attribute, values.get(attribute, _MISSING)))
        values[attribute] = value

    def begin(self) -> None:
        self._undo.clear()

    def rollback(self) -> None:
        """Undo every write since :meth:`begin`, newest first."""
        for key, attribute, previous in reversed(self._undo):
            values = self._overlay[key]
            if previous is not _MISSING:
                values[attribute] = previous
            elif len(values) > 1:
                del values[attribute]
            else:  # the request created this overlay entry
                del self._overlay[key]

    def updates(self) -> list[StateUpdate]:
        out: list[StateUpdate] = []
        for (class_name, object_id), values in self._overlay.items():
            for attribute, value in values.items():
                out.append(StateUpdate(class_name, object_id, attribute, value))
        return out


class TransactionEngine(UpdateComponent):
    """Owns constrained attributes and admits/aborts atomic blocks.

    ``owned`` maps class name -> the constrained attributes this engine
    updates.  It accepts either a set of attribute names (the effect
    variable is assumed to have the same name) or a mapping from the effect
    variable scripts write to the state attribute it updates — state and
    effect names are disjoint in SGL, so resource exchanges typically write
    ``gold_delta`` effects that update the ``gold`` attribute.
    ``apply`` controls how an effect value modifies an owned attribute; the
    default is *delta* semantics (``new = old + value``), the natural
    reading for resources like gold, health or stock.
    The game world supplies ``constraint_evaluator`` (an interpreter over a
    tentative state row) and a compiler; the evaluator decides only what a
    compiled constraint cannot (it did not compile, or raised on the row).
    """

    name = "transaction-engine"

    def __init__(
        self,
        owned: Mapping[str, "set[str] | Mapping[str, str]"],
        classes: Mapping[str, ClassDecl],
        constraint_evaluator: ConstraintEvaluator | None = None,
        apply: Callable[[Any, Any], Any] | None = None,
    ):
        #: class -> {effect name -> state attribute}
        self._effect_map: dict[str, dict[str, str]] = {}
        for class_name, spec in owned.items():
            if isinstance(spec, Mapping):
                self._effect_map[class_name] = dict(spec)
            else:
                self._effect_map[class_name] = {attr: attr for attr in spec}
        #: (class, owned effect, set_insert) -> the combinator it resolves to.
        self._combinators = {
            (cls, effect, insert): resolve_combinator(classes.get(cls), effect, set_insert=insert)
            for cls, effects in self._effect_map.items()
            for effect in effects
            for insert in (False, True)
        }
        self._constraint_evaluator = constraint_evaluator
        self._constraint_compiler: ConstraintCompiler | None = None
        #: (constraint, class) -> compiled form.  Keyed on the frozen AST
        #: node, never its ``id()``: ids recycle.
        self._compiled: dict[tuple[SglExpression, str], CompiledConstraint | None] = {}
        self._apply = apply or (lambda old, delta: (old or 0) + (delta or 0))
        self._pending: list[TransactionRequest] = []
        #: Report for the most recent tick.
        self.last_report = TransactionReport()

    # -- wiring ---------------------------------------------------------------------------------

    def owned_attributes(self) -> dict[str, set[str]]:
        return {
            cls: set(mapping.values()) for cls, mapping in self._effect_map.items()
        }

    def set_constraint_evaluator(
        self, evaluator: ConstraintEvaluator, compiler: ConstraintCompiler | None = None
    ) -> None:
        self._constraint_evaluator, self._constraint_compiler = evaluator, compiler
        self._compiled.clear()

    def submit(self, requests: Sequence[TransactionRequest]) -> None:
        """Queue transaction requests issued during the current tick."""
        self._pending.extend(requests)

    # -- update computation -----------------------------------------------------------------------

    def compute_updates(
        self, state: WorldStateView, effects: CombinedEffects
    ) -> list[StateUpdate]:
        tentative = _TentativeState(state)
        self._apply_plain_effects(effects, tentative)
        report = TransactionReport()
        for request in self._ordered(self._pending):
            tentative.begin()
            self._apply_assignments(request.assignments, tentative)
            ok, reason = self._check_constraints(request, tentative, report)
            if not ok:
                tentative.rollback()
            report.add(TransactionOutcome(request, ok, reason))
        self._pending = []
        self.last_report = report
        return tentative.updates()

    # -- internals -----------------------------------------------------------------------------------

    def _owns_effect(self, class_name: str, effect: str) -> bool:
        return effect in self._effect_map.get(class_name, ())

    def _apply_plain_effects(self, effects: CombinedEffects, tentative: _TentativeState) -> None:
        """Non-transactional effects on owned attributes always apply."""
        for (class_name, object_id), values in effects.values.items():
            for effect, value in values.items():
                if not self._owns_effect(class_name, effect):
                    continue
                attribute = self._effect_map[class_name][effect]
                old = tentative.value(class_name, object_id, attribute)
                tentative.set(class_name, object_id, attribute, self._apply(old, value))

    def _apply_assignments(
        self, assignments: Sequence[EffectAssignment], tentative: _TentativeState
    ) -> None:
        # Combine a single transaction's own writes with the declared
        # combinators first (a transaction may assign the same effect twice),
        # then apply them in EffectStore.combine()'s order: targets, then
        # effects, as first assigned.
        combined: dict[tuple[str, Any], dict[str, Accumulator]] = {}
        for a in assignments:
            if not self._owns_effect(a.class_name, a.effect):
                continue
            per_target = combined.setdefault((a.class_name, a.target_id), {})
            if a.effect not in per_target:
                combinator = self._combinators[(a.class_name, a.effect, a.set_insert)]
                per_target[a.effect] = make_accumulator(combinator)
            per_target[a.effect].add(a.value)
        for (class_name, object_id), accumulators in combined.items():
            for effect, accumulator in accumulators.items():
                attribute = self._effect_map[class_name][effect]
                old = tentative.value(class_name, object_id, attribute)
                new = self._apply(old, accumulator.result())
                tentative.set(class_name, object_id, attribute, new)

    def _check_constraints(
        self, request: TransactionRequest, tentative: _TentativeState, report: TransactionReport
    ) -> tuple[bool, str]:
        if not request.constraints or self._constraint_evaluator is None:
            return True, ""
        class_name = request.actor_class
        if tentative.base_row(class_name, request.actor_id) is None:
            return False, f"actor {request.actor_id!r} no longer exists"
        # Constraints must also hold for every object of the actor's class
        # the transaction wrote.
        object_ids = [request.actor_id]
        for assignment in request.assignments:
            object_id = assignment.target_id
            if (
                assignment.class_name == class_name
                and object_id not in object_ids
                and self._owns_effect(class_name, assignment.effect)
                and tentative.base_row(class_name, object_id) is not None
            ):
                object_ids.append(object_id)
        for constraint in request.constraints:
            compiled = self._compiled.get((constraint, class_name), _MISSING)
            if compiled is _MISSING:
                compiler = self._constraint_compiler
                compiled = None if compiler is None else compiler(constraint, class_name)
                self._compiled[(constraint, class_name)] = compiled
            for object_id in object_ids:
                ok = None
                if compiled is not None:
                    attributes, check = compiled
                    values = tuple(tentative.value(class_name, object_id, a) for a in attributes)
                    try:
                        ok = bool(check(values))
                    except Exception:
                        pass  # the evaluator decides, with its own value or error
                if ok is None:
                    report.interpreted_checks += 1
                    row = tentative.row(class_name, object_id)
                    try:
                        ok = self._constraint_evaluator(constraint, class_name, row)
                    except Exception as exc:
                        return False, f"constraint raised {exc!r}"
                if not ok:
                    return False, f"constraint {constraint!r} violated"
        return True, ""

    @staticmethod
    def _ordered(requests: Sequence[TransactionRequest]) -> list[TransactionRequest]:
        """Deterministic admission order: by class, actor id, then block."""

        def key(request: TransactionRequest):
            return (request.actor_class, repr(request.actor_id), request.block_index)

        return sorted(requests, key=key)
