"""Semantic analysis for SGL programs.

Static checks enforce the state-effect discipline the whole execution model
rests on (Sections 2 and 3 of the paper):

* state fields are **read-only** inside scripts; effect fields are
  **write-only** (assigned with ``<-`` / ``<=``),
* the accum variable of an accum-loop is write-only inside the first block
  and read-only inside the second block,
* ``waitNextTick`` may not appear inside the first block of an accum-loop
  or inside an ``atomic`` block (both restrictions are stated in the
  paper); this implementation additionally restricts it to the top level of
  a script body so the implicit program counter stays a plain integer,
* effect combinators must be known, referenced classes/fields must exist,
  locals must be declared before use.

The analyzer also produces the symbol information (:class:`ScriptInfo`)
that the compiler and the interpreter share, so name resolution happens in
exactly one place.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.engine.aggregates import AGGREGATE_NAMES
from repro.engine.expressions import FunctionCall
from repro.sgl.ast_nodes import (
    AccumLoop,
    AtomicBlock,
    Binary,
    Block,
    BoolLiteral,
    Call,
    ClassDecl,
    EffectAssign,
    FieldAccess,
    Identifier,
    IfStatement,
    LetStatement,
    LocalAssign,
    NullLiteral,
    NumberLiteral,
    Program,
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
from repro.sgl.errors import SGLSemanticError

__all__ = [
    "SymbolKind",
    "Symbol",
    "ScriptInfo",
    "AnalyzedProgram",
    "analyze_program",
    "resolve_combinator",
]

#: Effect combinators accepted in class declarations, mapped to the engine
#: aggregate that implements them.  ``or``/``and`` are aliases game scripts
#: commonly use for boolean effects.
COMBINATOR_ALIASES: Mapping[str, str] = {
    "or": "any",
    "and": "all",
    **{name: name for name in AGGREGATE_NAMES},
}


def resolve_combinator(class_decl, effect: str, *, set_insert: bool = False) -> str:
    """The resolved ⊕ combinator for one effect assignment.

    The single source of truth shared by the runtime effect store and the
    compiler's sink-fusion metadata — they must never disagree, or the
    engine would combine a query's rows with one combinator and the store
    would merge the partial under another.  Set-inserts (``<=``) always
    combine with union regardless of the declaration, matching the
    paper's container semantics; an unknown effect (e.g. synthetic
    effects used by update components) defaults to ``choose`` so a single
    writer behaves like plain assignment.  ``class_decl`` may be ``None``.
    """
    if set_insert:
        return "union"
    effect_decl = class_decl.effect_field(effect) if class_decl is not None else None
    if effect_decl is None:
        return "choose"
    return COMBINATOR_ALIASES.get(effect_decl.combinator, effect_decl.combinator)

_TYPE_NAMES = ("number", "bool", "string", "ref", "set")


class SymbolKind(enum.Enum):
    """What a bare identifier refers to inside a script."""

    STATE_FIELD = "state_field"
    EFFECT_FIELD = "effect_field"
    LOCAL = "local"
    ACCUM_VAR = "accum_var"
    LOOP_VAR = "loop_var"
    SELF = "self"
    CLASS = "class"


@dataclass(frozen=True)
class Symbol:
    """Resolution result for one name in one scope."""

    name: str
    kind: SymbolKind
    type_name: str | None = None
    class_name: str | None = None
    combinator: str | None = None


@dataclass
class ScriptInfo:
    """Per-script facts the compiler and interpreter need."""

    script: ScriptDecl
    class_decl: ClassDecl
    #: Object variables in scope anywhere in the script: name -> class name
    #: (always includes the self name).
    object_vars: dict[str, str] = field(default_factory=dict)
    #: Names of locals declared with ``let`` anywhere in the script.
    locals: set[str] = field(default_factory=set)
    #: Accum variable name -> canonical combinator.
    accum_vars: dict[str, str] = field(default_factory=dict)
    #: Whether the script contains waitNextTick (is multi-tick).
    multi_tick: bool = False
    #: Whether the script contains atomic blocks (issues transactions).
    transactional: bool = False


@dataclass
class AnalyzedProgram:
    """A validated program plus derived symbol information."""

    program: Program
    scripts: dict[str, ScriptInfo] = field(default_factory=dict)

    def class_named(self, name: str) -> ClassDecl:
        decl = self.program.class_named(name)
        if decl is None:
            raise SGLSemanticError(f"unknown class {name!r}")
        return decl

    def info_for(self, script_name: str) -> ScriptInfo:
        try:
            return self.scripts[script_name]
        except KeyError:
            raise SGLSemanticError(f"unknown script {script_name!r}") from None


def analyze_program(program: Program) -> AnalyzedProgram:
    """Validate *program* and return the analyzed form.

    Raises :class:`SGLSemanticError` on the first violation found.
    """
    _check_classes(program)
    analyzed = AnalyzedProgram(program)
    for script in program.scripts:
        if script.name in analyzed.scripts:
            raise SGLSemanticError(f"duplicate script name {script.name!r}", script.line)
        class_decl = program.class_named(script.class_name)
        if class_decl is None:
            raise SGLSemanticError(
                f"script {script.name!r} is declared over unknown class {script.class_name!r}",
                script.line,
            )
        checker = _ScriptChecker(program, script, class_decl)
        analyzed.scripts[script.name] = checker.check()
    return analyzed


# ---------------------------------------------------------------------------
# class-level checks
# ---------------------------------------------------------------------------


def _check_classes(program: Program) -> None:
    seen_classes: set[str] = set()
    for decl in program.classes:
        if decl.name in seen_classes:
            raise SGLSemanticError(f"duplicate class name {decl.name!r}", decl.line)
        seen_classes.add(decl.name)
    for decl in program.classes:
        field_names: set[str] = set()
        for state in decl.state_fields:
            if state.name in field_names:
                raise SGLSemanticError(
                    f"duplicate field {state.name!r} in class {decl.name!r}", state.line
                )
            field_names.add(state.name)
            if state.type_name not in _TYPE_NAMES:
                raise SGLSemanticError(
                    f"unknown type {state.type_name!r} for field {state.name!r}", state.line
                )
            if state.ref_class is not None and program.class_named(state.ref_class) is None:
                raise SGLSemanticError(
                    f"field {state.name!r} references unknown class {state.ref_class!r}",
                    state.line,
                )
        for effect in decl.effect_fields:
            if effect.name in field_names:
                raise SGLSemanticError(
                    f"duplicate field {effect.name!r} in class {decl.name!r}", effect.line
                )
            field_names.add(effect.name)
            if effect.type_name not in _TYPE_NAMES:
                raise SGLSemanticError(
                    f"unknown type {effect.type_name!r} for effect {effect.name!r}", effect.line
                )
            if effect.combinator not in COMBINATOR_ALIASES:
                raise SGLSemanticError(
                    f"unknown combinator {effect.combinator!r} for effect {effect.name!r} "
                    f"(known: {', '.join(sorted(COMBINATOR_ALIASES))})",
                    effect.line,
                )


# ---------------------------------------------------------------------------
# script-level checks
# ---------------------------------------------------------------------------


@dataclass
class _Scope:
    """One lexical scope while walking a script."""

    #: Object-valued variables: name -> class name.
    object_vars: dict[str, str]
    #: Locals declared with let.
    locals: set[str]
    #: Accum variables visible for *writing* (inside their body).
    writable_accums: dict[str, str]
    #: Accum variables visible for *reading* (inside their follow block).
    readable_accums: dict[str, str]

    def child(self) -> "_Scope":
        return _Scope(
            dict(self.object_vars),
            set(self.locals),
            dict(self.writable_accums),
            dict(self.readable_accums),
        )


class _ScriptChecker:
    """Walks one script enforcing the static rules."""

    def __init__(self, program: Program, script: ScriptDecl, class_decl: ClassDecl):
        self.program = program
        self.script = script
        self.class_decl = class_decl
        self.info = ScriptInfo(script=script, class_decl=class_decl)
        self.info.object_vars[script.self_name] = script.class_name

    def check(self) -> ScriptInfo:
        scope = _Scope(
            object_vars={self.script.self_name: self.script.class_name},
            locals=set(),
            writable_accums={},
            readable_accums={},
        )
        self._check_block(
            self.script.body, scope, top_level=True, in_accum_body=False, in_atomic=False
        )
        return self.info

    # -- statements ---------------------------------------------------------------------

    def _check_block(
        self,
        block: Block,
        scope: _Scope,
        *,
        top_level: bool,
        in_accum_body: bool,
        in_atomic: bool,
    ) -> None:
        for statement in block.statements:
            self._check_statement(
                statement,
                scope,
                top_level=top_level,
                in_accum_body=in_accum_body,
                in_atomic=in_atomic,
            )

    def _check_statement(
        self,
        statement: Statement,
        scope: _Scope,
        *,
        top_level: bool,
        in_accum_body: bool,
        in_atomic: bool,
    ) -> None:
        if isinstance(statement, LetStatement):
            self._check_expression(statement.value, scope)
            scope.locals.add(statement.name)
            self.info.locals.add(statement.name)
            return
        if isinstance(statement, LocalAssign):
            if statement.name not in scope.locals:
                declared = self.class_decl.state_field(statement.name) or self.class_decl.effect_field(
                    statement.name
                )
                if declared is not None:
                    raise SGLSemanticError(
                        f"cannot assign to {statement.name!r} with '='; state is read-only "
                        "and effects must use '<-'",
                        statement.line,
                    )
                raise SGLSemanticError(
                    f"assignment to undeclared local {statement.name!r}", statement.line
                )
            self._check_expression(statement.value, scope)
            return
        if isinstance(statement, (EffectAssign, SetInsert)):
            self._check_effect_target(statement.target, scope, statement.line)
            self._check_expression(statement.value, scope)
            return
        if isinstance(statement, IfStatement):
            self._check_expression(statement.condition, scope)
            for branch in (statement.then_block, statement.else_block):
                if branch is not None:
                    self._check_block(
                        branch,
                        scope.child(),
                        top_level=False,
                        in_accum_body=in_accum_body,
                        in_atomic=in_atomic,
                    )
            return
        if isinstance(statement, AccumLoop):
            self._check_accum(statement, scope, in_atomic=in_atomic)
            return
        if isinstance(statement, ReachLoop):
            self._check_reach(
                statement, scope, in_accum_body=in_accum_body, in_atomic=in_atomic
            )
            return
        if isinstance(statement, WaitNextTick):
            if in_accum_body:
                raise SGLSemanticError(
                    "waitNextTick is not allowed inside the first block of an accum-loop",
                    statement.line,
                )
            if in_atomic:
                raise SGLSemanticError(
                    "waitNextTick is not allowed inside an atomic block", statement.line
                )
            if not top_level:
                raise SGLSemanticError(
                    "this implementation only supports waitNextTick at the top level of a "
                    "script body",
                    statement.line,
                )
            self.info.multi_tick = True
            return
        if isinstance(statement, AtomicBlock):
            for constraint in statement.constraints:
                self._check_expression(constraint, scope)
            self.info.transactional = True
            self._check_block(
                statement.body,
                scope.child(),
                top_level=False,
                in_accum_body=in_accum_body,
                in_atomic=True,
            )
            return
        raise SGLSemanticError(f"unsupported statement {type(statement).__name__}")

    def _check_accum(self, loop: AccumLoop, scope: _Scope, *, in_atomic: bool) -> None:
        combinator = COMBINATOR_ALIASES.get(loop.combinator)
        if combinator is None:
            raise SGLSemanticError(
                f"unknown combinator {loop.combinator!r} in accum-loop", loop.line
            )
        extent_class = self._extent_class_name(loop.extent)
        if extent_class is None:
            raise SGLSemanticError(
                "the 'from' clause of an accum-loop must name a class extent", loop.line
            )
        if loop.loop_type not in _TYPE_NAMES and self.program.class_named(loop.loop_type) is None:
            raise SGLSemanticError(
                f"unknown loop element type {loop.loop_type!r} in accum-loop", loop.line
            )
        self.info.accum_vars[loop.accum_var] = combinator
        self.info.object_vars[loop.loop_var] = extent_class

        body_scope = scope.child()
        body_scope.object_vars[loop.loop_var] = extent_class
        body_scope.writable_accums[loop.accum_var] = combinator
        self._check_block(
            loop.body, body_scope, top_level=False, in_accum_body=True, in_atomic=in_atomic
        )

        follow_scope = scope.child()
        follow_scope.readable_accums[loop.accum_var] = combinator
        self._check_block(
            loop.follow, follow_scope, top_level=False, in_accum_body=False, in_atomic=in_atomic
        )

    def _check_reach(
        self, loop: ReachLoop, scope: _Scope, *, in_accum_body: bool, in_atomic: bool
    ) -> None:
        node_class = self._resolve_class_name(loop.node_type)
        if node_class is None:
            raise SGLSemanticError(
                f"unknown node class {loop.node_type!r} in reach-loop", loop.line
            )
        via_class = self._resolve_class_name(loop.via_type)
        if via_class is None:
            raise SGLSemanticError(
                f"unknown via class {loop.via_type!r} in reach-loop", loop.line
            )
        if node_class != via_class:
            raise SGLSemanticError(
                f"reach-loop node and via classes must match ({loop.node_type!r} vs "
                f"{loop.via_type!r}): the reached set and the expansion frontier "
                "range over one extent",
                loop.line,
            )
        self._check_expression(loop.seed, scope)
        self.info.object_vars[loop.node_var] = node_class
        self.info.object_vars[loop.via_var] = via_class

        # The condition relates the current frontier object to a candidate
        # next object — both are in scope, alongside everything outer.
        cond_scope = scope.child()
        cond_scope.object_vars[loop.via_var] = via_class
        cond_scope.object_vars[loop.node_var] = node_class
        self._check_expression(loop.condition, cond_scope)

        # The body runs once per *reached* object; only the node variable is
        # bound there (the frontier variable exists only in the condition).
        body_scope = scope.child()
        body_scope.object_vars[loop.node_var] = node_class
        self._check_block(
            loop.body,
            body_scope,
            top_level=False,
            in_accum_body=in_accum_body,
            in_atomic=in_atomic,
        )

    def _resolve_class_name(self, name: str) -> str | None:
        """Case-insensitive class-name lookup (Figure 2 writes ``from UNIT``)."""
        for decl in self.program.classes:
            if decl.name == name or decl.name.lower() == name.lower():
                return decl.name
        return None

    def _extent_class_name(self, extent: SglExpression) -> str | None:
        if isinstance(extent, Identifier):
            return self._resolve_class_name(extent.name)
        return None

    # -- effect targets ---------------------------------------------------------------------

    def _check_effect_target(self, target: SglExpression, scope: _Scope, line: int) -> None:
        if isinstance(target, Identifier):
            name = target.name
            if name in scope.writable_accums:
                return
            if name in scope.readable_accums:
                raise SGLSemanticError(
                    f"accum variable {name!r} is read-only in the 'in' block", line
                )
            effect = self.class_decl.effect_field(name)
            if effect is not None:
                return
            if self.class_decl.state_field(name) is not None:
                raise SGLSemanticError(
                    f"cannot assign to state field {name!r}: state variables are read-only "
                    "during a tick",
                    line,
                )
            raise SGLSemanticError(f"{name!r} is not an effect variable", line)
        if isinstance(target, FieldAccess):
            owner_class = self._class_of_object_expression(target.target, scope)
            if owner_class is None:
                raise SGLSemanticError(
                    "effect assignment target must be an effect of self, a loop variable, "
                    "or a reference field",
                    line,
                )
            class_decl = self.program.class_named(owner_class)
            assert class_decl is not None
            if class_decl.effect_field(target.field_name) is not None:
                return
            if class_decl.state_field(target.field_name) is not None:
                raise SGLSemanticError(
                    f"cannot assign to state field {owner_class}.{target.field_name!r}", line
                )
            raise SGLSemanticError(
                f"{owner_class}.{target.field_name!r} is not an effect variable", line
            )
        raise SGLSemanticError("invalid effect assignment target", line)

    def _class_of_object_expression(self, expr: SglExpression, scope: _Scope) -> str | None:
        """Class of an object-valued expression: self, a loop var, or a ref field."""
        if isinstance(expr, Identifier):
            if expr.name in scope.object_vars:
                return scope.object_vars[expr.name]
            state = self.class_decl.state_field(expr.name)
            if state is not None and state.type_name == "ref":
                return state.ref_class or self._only_class_name()
            return None
        if isinstance(expr, FieldAccess):
            owner = self._class_of_object_expression(expr.target, scope)
            if owner is None:
                return None
            owner_decl = self.program.class_named(owner)
            if owner_decl is None:
                return None
            state = owner_decl.state_field(expr.field_name)
            if state is not None and state.type_name == "ref":
                return state.ref_class or self._only_class_name()
        return None

    def _only_class_name(self) -> str | None:
        if len(self.program.classes) == 1:
            return self.program.classes[0].name
        return None

    # -- expressions -----------------------------------------------------------------------------

    def _check_expression(self, expr: SglExpression, scope: _Scope) -> None:
        if isinstance(expr, (NumberLiteral, BoolLiteral, StringLiteral, NullLiteral)):
            return
        if isinstance(expr, Identifier):
            self._check_identifier_read(expr, scope)
            return
        if isinstance(expr, FieldAccess):
            self._check_field_read(expr, scope)
            return
        if isinstance(expr, Binary):
            self._check_expression(expr.left, scope)
            self._check_expression(expr.right, scope)
            return
        if isinstance(expr, Unary):
            self._check_expression(expr.operand, scope)
            return
        if isinstance(expr, Call):
            if expr.name not in FunctionCall.known_functions():
                raise SGLSemanticError(f"unknown function {expr.name!r}", expr.line)
            for arg in expr.args:
                self._check_expression(arg, scope)
            return
        if isinstance(expr, SetConstructor):
            for element in expr.elements:
                self._check_expression(element, scope)
            return
        raise SGLSemanticError(f"unsupported expression {type(expr).__name__}", expr.line)

    def _check_identifier_read(self, expr: Identifier, scope: _Scope) -> None:
        name = expr.name
        if name in scope.object_vars or name in scope.locals:
            return
        if name in scope.readable_accums:
            return
        if name in scope.writable_accums:
            raise SGLSemanticError(
                f"accum variable {name!r} may not be read inside the accum-loop body", expr.line
            )
        state = self.class_decl.state_field(name)
        if state is not None:
            return
        effect = self.class_decl.effect_field(name)
        if effect is not None:
            raise SGLSemanticError(
                f"effect variable {name!r} is write-only and cannot be read during a tick",
                expr.line,
            )
        if self._extent_class_name(expr) is not None:
            return
        raise SGLSemanticError(f"unknown identifier {name!r}", expr.line)

    def _check_field_read(self, expr: FieldAccess, scope: _Scope) -> None:
        owner_class = self._class_of_object_expression(expr.target, scope)
        if owner_class is None:
            # Not an object expression we understand — validate the inner
            # expression and accept (e.g. set-valued locals used with size()).
            self._check_expression(expr.target, scope)
            return
        class_decl = self.program.class_named(owner_class)
        assert class_decl is not None
        if class_decl.state_field(expr.field_name) is not None:
            return
        if class_decl.effect_field(expr.field_name) is not None:
            raise SGLSemanticError(
                f"effect variable {owner_class}.{expr.field_name!r} is write-only and cannot "
                "be read during a tick",
                expr.line,
            )
        raise SGLSemanticError(
            f"class {owner_class!r} has no field {expr.field_name!r}", expr.line
        )
