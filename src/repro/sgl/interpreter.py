"""Object-at-a-time reference interpreter for SGL scripts.

This is the baseline the paper argues against for performance — "game
developers program at the object level and design behaviour for each
individual object" — and the semantics oracle for the compiler: for every
script, running the interpreter over each object must produce exactly the
same multiset of effect assignments as executing the compiled relational
plans (tested in ``tests/test_equivalence.py``, measured in experiment E2).

The interpreter executes one script for one acting object at a time,
walking the AST directly.  Accum-loops iterate the extent sequentially;
atomic blocks collect their writes into a :class:`TransactionRequest`
instead of emitting them immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Protocol

from repro.engine.aggregates import make_accumulator
from repro.sgl.ast_nodes import (
    AccumLoop,
    AtomicBlock,
    Binary,
    Block,
    BoolLiteral,
    Call,
    EffectAssign,
    FieldAccess,
    Identifier,
    IfStatement,
    LetStatement,
    LocalAssign,
    NullLiteral,
    NumberLiteral,
    ReachLoop,
    ScriptDecl,
    SetConstructor,
    SetInsert,
    SglExpression,
    Statement,
    StringLiteral,
    Unary,
    WaitNextTick,
)
from repro.sgl.errors import SGLRuntimeError
from repro.sgl.ir import EffectAssignment, TransactionRequest
from repro.sgl.multitick import ScriptSegment, SegmentedScript, segment_script
from repro.sgl.semantics import AnalyzedProgram, COMBINATOR_ALIASES
from repro.engine.expressions import FunctionCall

__all__ = ["WorldView", "InterpretationResult", "ScriptInterpreter", "evaluate_constraint"]


class WorldView(Protocol):
    """The read-only view of game state a script may observe during a tick."""

    def extent(self, class_name: str) -> Iterable[Mapping[str, Any]]:
        """All objects of a class, as state rows including the ``id`` key."""
        ...

    def get_object(self, class_name: str, object_id: Any) -> Mapping[str, Any] | None:
        """One object's state row by id, or ``None``."""
        ...


@dataclass
class InterpretationResult:
    """Everything one script execution produced for one acting object."""

    effects: list[EffectAssignment] = field(default_factory=list)
    transactions: list[TransactionRequest] = field(default_factory=list)

    def extend(self, other: "InterpretationResult") -> None:
        self.effects.extend(other.effects)
        self.transactions.extend(other.transactions)


@dataclass
class _ObjectValue:
    """An object-valued expression result: which class, which state row."""

    class_name: str
    row: Mapping[str, Any]


class _Environment:
    """Mutable evaluation environment for one script execution."""

    def __init__(self, self_name: str, self_value: _ObjectValue):
        self.objects: dict[str, _ObjectValue] = {self_name: self_value}
        self.locals: dict[str, Any] = {}
        self.readable_accums: dict[str, Any] = {}
        self.writable_accums: dict[str, Any] = {}

    def child(self) -> "_Environment":
        clone = _Environment.__new__(_Environment)
        clone.objects = dict(self.objects)
        clone.locals = dict(self.locals)
        clone.readable_accums = dict(self.readable_accums)
        clone.writable_accums = dict(self.writable_accums)
        return clone


class ScriptInterpreter:
    """Executes SGL scripts one object at a time against a world view."""

    def __init__(self, analyzed: AnalyzedProgram):
        self.analyzed = analyzed
        self.program = analyzed.program
        self._segmented: dict[str, SegmentedScript] = {}

    # -- public API -----------------------------------------------------------------------

    def segmented(self, script_name: str) -> SegmentedScript:
        """The (cached) waitNextTick segmentation of a script."""
        if script_name not in self._segmented:
            script = self.program.script_named(script_name)
            if script is None:
                raise SGLRuntimeError(f"unknown script {script_name!r}")
            self._segmented[script_name] = segment_script(script)
        return self._segmented[script_name]

    def run_script(
        self,
        script_name: str,
        self_row: Mapping[str, Any],
        world: WorldView,
        pc: int = 0,
    ) -> tuple[InterpretationResult, int]:
        """Run the segment selected by *pc* for one object.

        Returns the produced effects/transactions and the next program
        counter (``0`` again for single-tick scripts).
        """
        segmented = self.segmented(script_name)
        segment = segmented.segment_for(pc)
        result = self.run_segment(script_name, segment, self_row, world)
        return result, segmented.next_pc(segment.index)

    def run_segment(
        self,
        script_name: str,
        segment: ScriptSegment,
        self_row: Mapping[str, Any],
        world: WorldView,
    ) -> InterpretationResult:
        script = self.program.script_named(script_name)
        if script is None:
            raise SGLRuntimeError(f"unknown script {script_name!r}")
        result = InterpretationResult()
        env = _Environment(script.self_name, _ObjectValue(script.class_name, self_row))
        execution = _Execution(self, script, world, result)
        execution.exec_statements(segment.statements, env, transaction_sink=None)
        return result

    # -- helpers shared with the transaction engine ---------------------------------------------

    def evaluate_expression(
        self,
        expr: SglExpression,
        class_name: str,
        self_row: Mapping[str, Any],
        world: WorldView,
        self_name: str = "self",
    ) -> Any:
        """Evaluate an expression against one object's state (used for
        transaction constraints and reactive handler conditions)."""
        env = _Environment(self_name, _ObjectValue(class_name, self_row))
        script = ScriptDecl("<expr>", class_name, self_name, Block(()), line=0)
        execution = _Execution(self, script, world, InterpretationResult())
        return execution.eval(expr, env)


def evaluate_constraint(
    interpreter: ScriptInterpreter,
    constraint: SglExpression,
    class_name: str,
    self_row: Mapping[str, Any],
    world: WorldView,
    self_name: str = "self",
) -> bool:
    """Evaluate a transaction constraint; null results count as violations."""
    value = interpreter.evaluate_expression(constraint, class_name, self_row, world, self_name)
    return bool(value)


class _Execution:
    """The per-run walker: statements mutate the environment and emit IR."""

    def __init__(
        self,
        interpreter: ScriptInterpreter,
        script: ScriptDecl,
        world: WorldView,
        result: InterpretationResult,
    ):
        self.interpreter = interpreter
        self.program = interpreter.program
        self.script = script
        self.class_decl = interpreter.analyzed.class_named(script.class_name)
        self.world = world
        self.result = result
        self._atomic_counter = 0

    # -- statements --------------------------------------------------------------------------

    def exec_statements(
        self,
        statements: Iterable[Statement],
        env: _Environment,
        transaction_sink: list[EffectAssignment] | None,
    ) -> None:
        for statement in statements:
            self.exec_statement(statement, env, transaction_sink)

    def exec_statement(
        self,
        statement: Statement,
        env: _Environment,
        transaction_sink: list[EffectAssignment] | None,
    ) -> None:
        if isinstance(statement, LetStatement):
            env.locals[statement.name] = self.eval(statement.value, env)
            return
        if isinstance(statement, LocalAssign):
            env.locals[statement.name] = self.eval(statement.value, env)
            return
        if isinstance(statement, EffectAssign):
            self._emit_effect(statement.target, statement.value, env, transaction_sink, set_insert=False)
            return
        if isinstance(statement, SetInsert):
            self._emit_effect(statement.target, statement.value, env, transaction_sink, set_insert=True)
            return
        if isinstance(statement, IfStatement):
            if self.eval(statement.condition, env):
                self.exec_statements(statement.then_block.statements, env.child(), transaction_sink)
            elif statement.else_block is not None:
                self.exec_statements(statement.else_block.statements, env.child(), transaction_sink)
            return
        if isinstance(statement, AccumLoop):
            self._exec_accum(statement, env, transaction_sink)
            return
        if isinstance(statement, ReachLoop):
            self._exec_reach(statement, env, transaction_sink)
            return
        if isinstance(statement, WaitNextTick):
            # Segmentation removes top-level waits before execution; one that
            # survives (e.g. running an unsegmented script directly) is a no-op.
            return
        if isinstance(statement, AtomicBlock):
            self._exec_atomic(statement, env)
            return
        raise SGLRuntimeError(f"unsupported statement {type(statement).__name__}")

    def _exec_accum(
        self,
        loop: AccumLoop,
        env: _Environment,
        transaction_sink: list[EffectAssignment] | None,
    ) -> None:
        combinator = COMBINATOR_ALIASES.get(loop.combinator, loop.combinator)
        accumulator = make_accumulator(combinator)
        extent_class = self._extent_class(loop)
        for row in self.world.extent(extent_class):
            body_env = env.child()
            body_env.objects[loop.loop_var] = _ObjectValue(extent_class, row)
            body_env.writable_accums[loop.accum_var] = accumulator
            self.exec_statements(loop.body.statements, body_env, transaction_sink)
        follow_env = env.child()
        follow_env.readable_accums[loop.accum_var] = accumulator.result()
        self.exec_statements(loop.follow.statements, follow_env, transaction_sink)

    def _exec_reach(
        self,
        loop: ReachLoop,
        env: _Environment,
        transaction_sink: list[EffectAssignment] | None,
    ) -> None:
        """Reference BFS for ``reach`` — the oracle the Fixpoint plan must match."""
        node_class = self._class_by_name(loop.node_type, loop.line)
        seed = self.eval(loop.seed, env)
        seed_id = seed.row.get("id") if isinstance(seed, _ObjectValue) else seed
        rows = list(self.world.extent(node_class))
        by_id = {row.get("id"): row for row in rows}
        reached: list[Any] = [seed_id]
        seen = {seed_id}
        frontier = [seed_id]
        rounds = 0
        while frontier and (loop.max_rounds is None or rounds < loop.max_rounds):
            rounds += 1
            next_frontier: list[Any] = []
            for via_id in frontier:
                via_row = by_id.get(via_id)
                if via_row is None:
                    continue
                for candidate in rows:
                    candidate_id = candidate.get("id")
                    if candidate_id in seen:
                        continue
                    cond_env = env.child()
                    cond_env.objects[loop.via_var] = _ObjectValue(node_class, via_row)
                    cond_env.objects[loop.node_var] = _ObjectValue(node_class, candidate)
                    if bool(self.eval(loop.condition, cond_env)):
                        seen.add(candidate_id)
                        reached.append(candidate_id)
                        next_frontier.append(candidate_id)
            frontier = next_frontier
        for node_id in reached:
            row = by_id.get(node_id)
            if row is None:
                continue
            body_env = env.child()
            body_env.objects[loop.node_var] = _ObjectValue(node_class, row)
            self.exec_statements(loop.body.statements, body_env, transaction_sink)

    def _exec_atomic(self, block: AtomicBlock, env: _Environment) -> None:
        sink: list[EffectAssignment] = []
        self.exec_statements(block.body.statements, env.child(), sink)
        self_value = env.objects[self.script.self_name]
        request = TransactionRequest(
            actor_class=self.script.class_name,
            actor_id=self_value.row.get("id"),
            assignments=tuple(sink),
            constraints=block.constraints,
            script_name=self.script.name,
            block_index=self._atomic_counter,
        )
        self._atomic_counter += 1
        self.result.transactions.append(request)

    def _extent_class(self, loop: AccumLoop) -> str:
        if isinstance(loop.extent, Identifier):
            return self._class_by_name(loop.extent.name, loop.line)
        raise SGLRuntimeError(
            f"accum-loop extent must be a class name, got {loop.extent!r}", loop.line
        )

    def _class_by_name(self, name: str, line: int) -> str:
        for decl in self.program.classes:
            if decl.name == name or decl.name.lower() == name.lower():
                return decl.name
        raise SGLRuntimeError(f"unknown class {name!r}", line)

    # -- effect emission ----------------------------------------------------------------------

    def _emit_effect(
        self,
        target: SglExpression,
        value_expr: SglExpression,
        env: _Environment,
        transaction_sink: list[EffectAssignment] | None,
        *,
        set_insert: bool,
    ) -> None:
        value = self.eval(value_expr, env)
        # Accum variable write.
        if isinstance(target, Identifier) and target.name in env.writable_accums:
            env.writable_accums[target.name].add(value)
            return
        target_class, target_row, effect_name = self._resolve_effect_target(target, env)
        assignment = EffectAssignment(
            class_name=target_class,
            target_id=target_row.get("id"),
            effect=effect_name,
            value=value,
            set_insert=set_insert,
        )
        if transaction_sink is not None:
            transaction_sink.append(assignment)
        else:
            self.result.effects.append(assignment)

    def _resolve_effect_target(
        self, target: SglExpression, env: _Environment
    ) -> tuple[str, Mapping[str, Any], str]:
        if isinstance(target, Identifier):
            self_value = env.objects[self.script.self_name]
            return self_value.class_name, self_value.row, target.name
        if isinstance(target, FieldAccess):
            owner = self._eval_object(target.target, env)
            if owner is None:
                raise SGLRuntimeError(
                    f"effect target {target!r} does not resolve to an object", target.line
                )
            return owner.class_name, owner.row, target.field_name
        raise SGLRuntimeError("invalid effect assignment target", getattr(target, "line", 0))

    # -- expressions -------------------------------------------------------------------------------

    def eval(self, expr: SglExpression, env: _Environment) -> Any:
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, BoolLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, NullLiteral):
            return None
        if isinstance(expr, Identifier):
            return self._eval_identifier(expr, env)
        if isinstance(expr, FieldAccess):
            return self._eval_field_access(expr, env)
        if isinstance(expr, Binary):
            return self._eval_binary(expr, env)
        if isinstance(expr, Unary):
            operand = self.eval(expr.operand, env)
            if expr.op == "-":
                return None if operand is None else -operand
            return not bool(operand)
        if isinstance(expr, Call):
            return self._eval_call(expr, env)
        if isinstance(expr, SetConstructor):
            return frozenset(self.eval(e, env) for e in expr.elements)
        raise SGLRuntimeError(f"unsupported expression {type(expr).__name__}", expr.line)

    def _eval_identifier(self, expr: Identifier, env: _Environment) -> Any:
        name = expr.name
        if name in env.objects:
            return env.objects[name]
        if name in env.locals:
            return env.locals[name]
        if name in env.readable_accums:
            return env.readable_accums[name]
        self_value = env.objects[self.script.self_name]
        if name in self_value.row:
            return self_value.row[name]
        raise SGLRuntimeError(f"unknown identifier {name!r}", expr.line)

    def _eval_field_access(self, expr: FieldAccess, env: _Environment) -> Any:
        owner = self._eval_object(expr.target, env)
        if owner is not None:
            if expr.field_name in owner.row:
                value = owner.row[expr.field_name]
                return value
            raise SGLRuntimeError(
                f"object of class {owner.class_name!r} has no field {expr.field_name!r}", expr.line
            )
        value = self.eval(expr.target, env)
        if isinstance(value, Mapping):
            return value.get(expr.field_name)
        raise SGLRuntimeError(
            f"cannot read field {expr.field_name!r} of non-object value {value!r}", expr.line
        )

    def _eval_object(self, expr: SglExpression, env: _Environment) -> _ObjectValue | None:
        """Resolve an expression to an object (self, loop var, or ref field)."""
        if isinstance(expr, Identifier):
            if expr.name in env.objects:
                return env.objects[expr.name]
            # A bare ref-typed state field of self.
            state = self.class_decl.state_field(expr.name)
            if state is not None and state.type_name == "ref":
                self_value = env.objects[self.script.self_name]
                return self._deref(state.ref_class, self_value.row.get(expr.name))
            return None
        if isinstance(expr, FieldAccess):
            owner = self._eval_object(expr.target, env)
            if owner is None:
                return None
            owner_decl = self.program.class_named(owner.class_name)
            if owner_decl is None:
                return None
            state = owner_decl.state_field(expr.field_name)
            if state is not None and state.type_name == "ref":
                return self._deref(state.ref_class, owner.row.get(expr.field_name))
            return None
        return None

    def _deref(self, ref_class: str | None, ref_value: Any) -> _ObjectValue | None:
        if ref_value is None:
            return None
        class_name = ref_class
        if class_name is None:
            if len(self.program.classes) == 1:
                class_name = self.program.classes[0].name
            else:
                raise SGLRuntimeError("untyped reference used in a multi-class program")
        object_id = getattr(ref_value, "oid", ref_value)
        row = self.world.get_object(class_name, object_id)
        if row is None:
            return None
        return _ObjectValue(class_name, row)

    def _eval_binary(self, expr: Binary, env: _Environment) -> Any:
        op = expr.op
        if op == "&&":
            return bool(self.eval(expr.left, env)) and bool(self.eval(expr.right, env))
        if op == "||":
            return bool(self.eval(expr.left, env)) or bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op in ("==", "!="):
            left_id = left.row.get("id") if isinstance(left, _ObjectValue) else left
            right_id = right.row.get("id") if isinstance(right, _ObjectValue) else right
            return (left_id == right_id) if op == "==" else (left_id != right_id)
        if left is None or right is None:
            return None
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return None if right == 0 else left / right
            if op == "%":
                return None if right == 0 else left % right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError as exc:
            raise SGLRuntimeError(
                f"cannot apply {op!r} to {left!r} and {right!r}", expr.line
            ) from exc
        raise SGLRuntimeError(f"unknown operator {op!r}", expr.line)

    def _eval_call(self, expr: Call, env: _Environment) -> Any:
        args = [self.eval(a, env) for a in expr.args]
        resolved = []
        for arg in args:
            if isinstance(arg, _ObjectValue):
                resolved.append(arg.row.get("id"))
            else:
                resolved.append(arg)
        from repro.engine.expressions import Literal

        call = FunctionCall(expr.name, [Literal(v) for v in resolved])
        return call.evaluate({})
