"""Compiling SGL scripts to relational algebra (Section 2 of the paper).

The compiler turns the *query step* and *effect step* of a script into
logical plans: one :class:`~repro.sgl.ir.EffectQuery` per effect-assignment
site.  Executing all of a tick's effect queries set-at-a-time and combining
the produced assignments with the declared combinators is equivalent to
running the object-at-a-time interpreter over every object — that is the
core claim the reproduction verifies and benchmarks (experiment E2).

Lowering rules:

* the acting object's extent becomes a scan aliased with the script's
  ``self`` name; every ``if`` contributes its condition to a path predicate,
* an accum-loop becomes (a) effect queries over the join ``self × extent``
  for assignments inside its body, and (b) an aggregate sub-plan grouping
  the body's accum contributions by the acting object, left-joined back so
  the follow block can read the combined value (missing groups coalesce to
  the combinator's identity),
* reads through a reference field of ``self`` become a dereference left
  join against the referenced class's extent,
* atomic blocks mark their effect queries transactional and attach the
  block's constraints; the rows additionally carry the acting object's key
  so the runtime can reassemble per-actor transaction requests,
* multi-tick scripts compile per segment, guarded by a predicate on the
  implicit program-counter column.

Unsupported constructs (nested reference reads, conditionally re-assigned
locals) raise :class:`SGLCompileError`; the interpreter remains the
fallback execution strategy for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.aggregates import make_accumulator
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Fixpoint,
    Join,
    LogicalPlan,
    Project,
    RecursiveRef,
    Select,
    Union,
)
from repro.engine.expressions import BinaryOp, ColumnRef, Expression, Literal, UnaryOp
from repro.engine.schema import Column, Schema
from repro.sgl.ast_nodes import (
    AccumLoop,
    AtomicBlock,
    EffectAssign,
    FieldAccess,
    Identifier,
    IfStatement,
    LetStatement,
    LocalAssign,
    ReachLoop,
    ScriptDecl,
    SetInsert,
    SglExpression,
    Statement,
    WaitNextTick,
)
from repro.sgl.compiler.expr_lower import (
    LoweringContext,
    ObjectBinding,
    coalesce,
    collect_ref_reads,
    lower_expression,
)
from repro.sgl.errors import SGLCompileError
from repro.sgl.ir import ACTOR_COLUMN, EffectQuery, TARGET_COLUMN, VALUE_COLUMN
from repro.sgl.multitick import SegmentedScript, pc_variable_name, segment_script
from repro.sgl.schema_gen import GeneratedSchema, SchemaGenerator
from repro.sgl.semantics import AnalyzedProgram, COMBINATOR_ALIASES, resolve_combinator

__all__ = ["CompiledScript", "CompiledProgram", "SGLCompiler"]

#: Internal column names of a reach-loop's closure relation.  Fixed — not
#: derived from the loop's variable names — so two scripts that spell their
#: variables differently still produce identical MQO fingerprints and share
#: one closure materialization per tick.
_REACH_ACTOR = "__actor__"
_REACH_NODE = "__node__"
_REACH_SRC = "__src__"
_REACH_DST = "__dst__"

#: Combinator identities used when an accum-loop's aggregate has no rows for
#: an acting object (the left join produced a null).
_COMBINATOR_IDENTITY = {
    "sum": 0,
    "count": 0,
    "any": False,
    "all": True,
    "union": frozenset(),
}


@dataclass
class CompiledScript:
    """All effect queries of one script, grouped by multi-tick segment."""

    script: ScriptDecl
    segmented: SegmentedScript
    #: segment index -> effect queries for that segment.
    queries_by_segment: dict[int, list[EffectQuery]] = field(default_factory=dict)

    @property
    def is_multi_tick(self) -> bool:
        return self.segmented.is_multi_tick

    def all_queries(self) -> list[EffectQuery]:
        out: list[EffectQuery] = []
        for segment in sorted(self.queries_by_segment):
            out.extend(self.queries_by_segment[segment])
        return out


@dataclass
class CompiledProgram:
    """Compiled form of every script in a program."""

    scripts: dict[str, CompiledScript] = field(default_factory=dict)

    def script(self, name: str) -> CompiledScript:
        try:
            return self.scripts[name]
        except KeyError:
            raise SGLCompileError(f"script {name!r} was not compiled") from None


class SGLCompiler:
    """Compiles analyzed SGL programs against generated schemas."""

    def __init__(
        self,
        analyzed: AnalyzedProgram,
        schemas: dict[str, GeneratedSchema],
        schema_generator: SchemaGenerator,
    ):
        self.analyzed = analyzed
        self.program = analyzed.program
        self.schemas = schemas
        self.schema_generator = schema_generator

    # -- public API ------------------------------------------------------------------------

    def compile_program(self) -> CompiledProgram:
        compiled = CompiledProgram()
        for script in self.program.scripts:
            compiled.scripts[script.name] = self.compile_script(script.name)
        return compiled

    def compile_script(self, script_name: str) -> CompiledScript:
        script = self.program.script_named(script_name)
        if script is None:
            raise SGLCompileError(f"unknown script {script_name!r}")
        segmented = segment_script(script)
        compiled = CompiledScript(script=script, segmented=segmented)
        for segment in segmented.segments:
            walker = _SegmentCompiler(self, script, segment.index, segmented)
            compiled.queries_by_segment[segment.index] = walker.compile(segment.statements)
        return compiled

    # -- helpers used by the segment walker ---------------------------------------------------

    def extent_plan(self, class_name: str, alias: str) -> LogicalPlan:
        generated = self.schemas.get(class_name)
        if generated is None:
            raise SGLCompileError(f"no generated schema for class {class_name!r}")
        return self.schema_generator.extent_plan(generated, alias)

    def resolve_extent_class(self, extent: SglExpression) -> str:
        if isinstance(extent, Identifier):
            for decl in self.program.classes:
                if decl.name == extent.name or decl.name.lower() == extent.name.lower():
                    return decl.name
        raise SGLCompileError(f"accum-loop extent must name a class, got {extent!r}")

    def resolve_class_name(self, name: str) -> str:
        for decl in self.program.classes:
            if decl.name == name or decl.name.lower() == name.lower():
                return decl.name
        raise SGLCompileError(f"unknown class {name!r}")


class _SegmentCompiler:
    """Walks one script segment, producing effect queries."""

    def __init__(
        self,
        compiler: SGLCompiler,
        script: ScriptDecl,
        segment_index: int,
        segmented: SegmentedScript,
    ):
        self.compiler = compiler
        self.program = compiler.program
        self.script = script
        self.class_decl = compiler.analyzed.class_named(script.class_name)
        self.segment_index = segment_index
        self.segmented = segmented
        self.queries: list[EffectQuery] = []
        self._accum_counter = 0
        self._atomic_counter = 0
        self._in_reach_body = False

    # -- entry point -----------------------------------------------------------------------

    def compile(self, statements: Sequence[Statement]) -> list[EffectQuery]:
        context = LoweringContext(
            program=self.program,
            class_decl=self.class_decl,
            self_name=self.script.self_name,
        )
        self_binding = ObjectBinding(self.script.class_name, self.script.self_name)
        context.objects[self.script.self_name] = self_binding

        base_plan = self.compiler.extent_plan(self.script.class_name, self.script.self_name)
        base_plan = self._add_ref_joins(base_plan, statements, context)

        condition: Expression = Literal(True)
        if self.segmented.is_multi_tick:
            pc_column = ColumnRef(f"{self.script.self_name}.{pc_variable_name(self.script.name)}")
            condition = BinaryOp("==", pc_column, Literal(self.segment_index))

        self._walk(statements, base_plan, condition, context, atomic=None)
        return self.queries

    # -- reference dereference joins ------------------------------------------------------------

    def _add_ref_joins(
        self,
        base_plan: LogicalPlan,
        statements: Sequence[Statement],
        context: LoweringContext,
    ) -> LogicalPlan:
        ref_fields: set[str] = set()
        self._collect_refs(statements, context, ref_fields)
        plan = base_plan
        for ref_field in sorted(ref_fields):
            state = self.class_decl.state_field(ref_field)
            assert state is not None
            ref_class = state.ref_class
            if ref_class is None:
                if len(self.program.classes) == 1:
                    ref_class = self.program.classes[0].name
                else:
                    raise SGLCompileError(
                        f"reference field {ref_field!r} needs an explicit class in a "
                        "multi-class program"
                    )
            alias = f"__ref_{ref_field}"
            binding = ObjectBinding(ref_class, alias)
            context.ref_joins[ref_field] = binding
            join_condition = BinaryOp(
                "==",
                ColumnRef(f"{self.script.self_name}.{ref_field}"),
                ColumnRef(f"{alias}.id"),
            )
            plan = Join(plan, self.compiler.extent_plan(ref_class, alias), join_condition, how="left")
        return plan

    def _collect_refs(
        self, statements: Sequence[Statement], context: LoweringContext, out: set[str]
    ) -> None:
        for statement in statements:
            collect_ref_reads(statement, context, out)
            if isinstance(statement, IfStatement):
                collect_ref_reads(statement.condition, context, out)
                self._collect_refs(statement.then_block.statements, context, out)
                if statement.else_block is not None:
                    self._collect_refs(statement.else_block.statements, context, out)
            elif isinstance(statement, AccumLoop):
                self._collect_refs(statement.body.statements, context, out)
                self._collect_refs(statement.follow.statements, context, out)
            elif isinstance(statement, ReachLoop):
                collect_ref_reads(statement.seed, context, out)
                self._collect_refs(statement.body.statements, context, out)
            elif isinstance(statement, AtomicBlock):
                self._collect_refs(statement.body.statements, context, out)

    # -- statement walking -------------------------------------------------------------------------

    def _walk(
        self,
        statements: Sequence[Statement],
        plan: LogicalPlan,
        condition: Expression,
        context: LoweringContext,
        atomic: AtomicBlock | None,
    ) -> tuple[LogicalPlan, LoweringContext]:
        """Walk statements; returns the (possibly extended) plan and context
        so accum-loop follow blocks see the aggregate join."""
        for statement in statements:
            if isinstance(statement, LetStatement):
                context.locals[statement.name] = lower_expression(statement.value, context)
                continue
            if isinstance(statement, LocalAssign):
                context.locals[statement.name] = lower_expression(statement.value, context)
                continue
            if isinstance(statement, (EffectAssign, SetInsert)):
                set_insert = isinstance(statement, SetInsert)
                self._emit_effect_query(
                    statement, plan, condition, context, atomic, set_insert=set_insert
                )
                continue
            if isinstance(statement, IfStatement):
                lowered = lower_expression(statement.condition, context)
                then_condition = BinaryOp("&&", condition, lowered)
                self._walk(
                    statement.then_block.statements, plan, then_condition, context.child(), atomic
                )
                if statement.else_block is not None:
                    else_condition = BinaryOp("&&", condition, UnaryOp("!", lowered))
                    self._walk(
                        statement.else_block.statements, plan, else_condition, context.child(), atomic
                    )
                continue
            if isinstance(statement, AccumLoop):
                plan, context = self._compile_accum(statement, plan, condition, context, atomic)
                continue
            if isinstance(statement, ReachLoop):
                self._compile_reach(statement, plan, condition, context, atomic)
                continue
            if isinstance(statement, WaitNextTick):
                # Removed by segmentation; reaching one here means the script
                # was compiled without segmentation, which is a bug.
                raise SGLCompileError("waitNextTick encountered inside a segment", statement.line)
            if isinstance(statement, AtomicBlock):
                if atomic is not None:
                    raise SGLCompileError("nested atomic blocks are not supported", statement.line)
                self._atomic_counter += 1
                self._walk(
                    statement.body.statements, plan, condition, context.child(), statement
                )
                continue
            raise SGLCompileError(f"cannot compile statement {type(statement).__name__}")
        return plan, context

    # -- effect assignment sites -------------------------------------------------------------------

    def _emit_effect_query(
        self,
        statement: EffectAssign | SetInsert,
        plan: LogicalPlan,
        condition: Expression,
        context: LoweringContext,
        atomic: AtomicBlock | None,
        *,
        set_insert: bool,
    ) -> None:
        target = statement.target
        # Writes to a writable accum variable are handled by _compile_accum.
        if isinstance(target, Identifier) and target.name.startswith("__accum_placeholder__"):
            raise SGLCompileError("internal error: accum placeholder leaked")
        target_class, target_key = self._resolve_target(target, context)
        value = lower_expression(statement.value, context)
        projections: dict[str, Expression] = {
            TARGET_COLUMN: target_key,
            VALUE_COLUMN: value,
        }
        if atomic is not None:
            projections[ACTOR_COLUMN] = context.self_binding.key_column()
        query_plan: LogicalPlan = Project(Select(plan, condition), projections)
        effect_name = target.field_name if isinstance(target, FieldAccess) else target.name
        self.queries.append(
            EffectQuery(
                script_name=self.script.name,
                class_name=self.script.class_name,
                target_class=target_class,
                effect=effect_name,
                plan=query_plan,
                set_insert=set_insert,
                segment=self.segment_index,
                constraints=atomic.constraints if atomic is not None else (),
                transactional=atomic is not None,
                block_index=self._atomic_counter if atomic is not None else 0,
                description=f"{self.script.name}:{getattr(statement, 'line', 0)} "
                f"{effect_name} <- ...",
                query_id=f"{self.script.name}/{self.segment_index}/{len(self.queries)}",
                combinator=self._effect_combinator(
                    target_class, effect_name, set_insert=set_insert
                ),
            )
        )

    def _effect_combinator(self, target_class: str, effect: str, *, set_insert: bool) -> str:
        """The resolved ⊕ combinator of the target effect, via the same
        :func:`~repro.sgl.semantics.resolve_combinator` the runtime effect
        store uses, so the engine-side effect sink and the store can never
        disagree."""
        return resolve_combinator(
            self.compiler.analyzed.class_named(target_class), effect, set_insert=set_insert
        )

    def _resolve_target(
        self, target: SglExpression, context: LoweringContext
    ) -> tuple[str, Expression]:
        """Return (target class, expression computing the target object key)."""
        if isinstance(target, Identifier):
            effect = self.class_decl.effect_field(target.name)
            if effect is None:
                raise SGLCompileError(
                    f"{target.name!r} is not an effect of class {self.class_decl.name!r}",
                    target.line,
                )
            return self.script.class_name, context.self_binding.key_column()
        if isinstance(target, FieldAccess):
            owner = target.target
            # <loop var>.<effect> or <self>.<effect>
            if isinstance(owner, Identifier) and owner.name in context.objects:
                binding = context.objects[owner.name]
                return binding.class_name, binding.key_column()
            # <ref field>.<effect> / self.<ref field>.<effect>
            ref_field = self._ref_field(owner)
            if ref_field is not None:
                state = self.class_decl.state_field(ref_field)
                assert state is not None
                ref_class = state.ref_class or (
                    self.program.classes[0].name if len(self.program.classes) == 1 else None
                )
                if ref_class is None:
                    raise SGLCompileError(
                        f"reference field {ref_field!r} needs an explicit class", target.line
                    )
                return ref_class, ColumnRef(f"{self.script.self_name}.{ref_field}")
            raise SGLCompileError(
                f"unsupported effect target {target.field_name!r}", target.line
            )
        raise SGLCompileError("invalid effect target", getattr(target, "line", 0))

    def _ref_field(self, owner: SglExpression) -> str | None:
        if isinstance(owner, Identifier):
            state = self.class_decl.state_field(owner.name)
            if state is not None and state.type_name == "ref":
                return owner.name
        if isinstance(owner, FieldAccess) and isinstance(owner.target, Identifier):
            if owner.target.name == self.script.self_name:
                state = self.class_decl.state_field(owner.field_name)
                if state is not None and state.type_name == "ref":
                    return owner.field_name
        return None

    # -- reach-loops --------------------------------------------------------------------------------

    def _compile_reach(
        self,
        loop: ReachLoop,
        plan: LogicalPlan,
        condition: Expression,
        context: LoweringContext,
        atomic: AtomicBlock | None,
    ) -> None:
        """Lower a reach-loop to a :class:`Fixpoint` plan.

        The closure relation holds ``(actor id, reached node id)`` pairs.
        Its base seeds every acting object on this path with its seed node;
        its step joins the accumulating closure against an *edge relation*
        derived once from ``via × node`` pairs satisfying the condition.
        Deriving the edges outside the recursion keeps the step linear —
        the physical planner hashes the edge side once per execution and
        probes it with each round's frontier — and makes the edge subplan
        itself MQO-shareable.  Body effect queries then join the actor
        extent back to the closure and the node extent, one row per
        (actor, reached node) pair.
        """
        if self._in_reach_body:
            raise SGLCompileError(
                "nested reach-loops are not supported by the set-at-a-time "
                "compiler; use the interpreter for this script",
                loop.line,
            )
        node_class = self.compiler.resolve_class_name(loop.node_type)
        self_key = context.self_binding.key_column()

        seed_value = lower_expression(loop.seed, context)
        base = Project(
            Select(plan, condition),
            {_REACH_ACTOR: self_key, _REACH_NODE: seed_value},
        )

        # The condition may reference only the via/node variables: the edge
        # relation is derived once for all actors, so a condition over the
        # acting object would have to re-derive edges per actor.
        edge_context = LoweringContext(
            program=self.program,
            class_decl=self.class_decl,
            self_name=self.script.self_name,
        )
        edge_context.objects[loop.via_var] = ObjectBinding(node_class, loop.via_var)
        edge_context.objects[loop.node_var] = ObjectBinding(node_class, loop.node_var)
        cond = lower_expression(loop.condition, edge_context)
        prefixes = (f"{loop.via_var}.", f"{loop.node_var}.")
        for column in cond.columns():
            if not column.startswith(prefixes):
                raise SGLCompileError(
                    "a reach-loop condition may only reference its via/node "
                    f"variables, found {column!r}; use the interpreter for "
                    "conditions over the acting object",
                    loop.line,
                )
        edges = Project(
            Select(
                Join(
                    self.compiler.extent_plan(node_class, loop.via_var),
                    self.compiler.extent_plan(node_class, loop.node_var),
                    None,
                    how="cross",
                ),
                cond,
            ),
            {
                _REACH_SRC: ColumnRef(f"{loop.via_var}.id"),
                _REACH_DST: ColumnRef(f"{loop.node_var}.id"),
            },
        )

        closure_schema = Schema([Column(_REACH_ACTOR), Column(_REACH_NODE)])
        step = Project(
            Join(
                RecursiveRef(closure_schema),
                edges,
                BinaryOp("==", ColumnRef(_REACH_NODE), ColumnRef(_REACH_SRC)),
                how="inner",
            ),
            {
                _REACH_ACTOR: ColumnRef(_REACH_ACTOR),
                _REACH_NODE: ColumnRef(_REACH_DST),
            },
        )
        closure = Fixpoint(base, step, max_rounds=loop.max_rounds)

        node_alias = loop.node_var
        body_plan = Join(
            Join(
                plan,
                closure,
                BinaryOp("==", self_key, ColumnRef(_REACH_ACTOR)),
                how="inner",
            ),
            self.compiler.extent_plan(node_class, node_alias),
            BinaryOp("==", ColumnRef(_REACH_NODE), ColumnRef(f"{node_alias}.id")),
            how="inner",
        )
        body_context = context.child()
        body_context.objects[loop.node_var] = ObjectBinding(node_class, node_alias)
        self._in_reach_body = True
        try:
            self._walk(loop.body.statements, body_plan, condition, body_context, atomic)
        finally:
            self._in_reach_body = False

    # -- accum-loops --------------------------------------------------------------------------------

    def _compile_accum(
        self,
        loop: AccumLoop,
        plan: LogicalPlan,
        condition: Expression,
        context: LoweringContext,
        atomic: AtomicBlock | None,
    ) -> tuple[LogicalPlan, LoweringContext]:
        combinator = COMBINATOR_ALIASES.get(loop.combinator, loop.combinator)
        make_accumulator(combinator)  # validate the name early
        extent_class = self.compiler.resolve_extent_class(loop.extent)
        self._accum_counter += 1
        loop_alias = f"{loop.loop_var}"
        join_plan = Join(plan, self.compiler.extent_plan(extent_class, loop_alias), None, how="cross")

        body_context = context.child()
        body_context.objects[loop.loop_var] = ObjectBinding(extent_class, loop_alias)

        # (a) contributions to the accum variable, one sub-plan per assignment site.
        contributions = self._collect_accum_contributions(
            loop.accum_var, loop.body.statements, join_plan, condition, body_context, atomic
        )

        # (b) effect assignments inside the body targeting real effect variables
        #     were emitted by _collect_accum_contributions as it walked.

        self_key = context.self_binding.key_column()
        accum_column_plan: LogicalPlan | None = None
        if contributions:
            union_plan = contributions[0]
            for extra in contributions[1:]:
                union_plan = Union(union_plan, extra)
            aggregate = Aggregate(
                union_plan,
                group_by=["__key__"],
                aggregates=[AggregateSpec(loop.accum_var, combinator, ColumnRef("__value__"))],
            )
            key_alias = f"__accum_key_{loop.accum_var}_{self._accum_counter}"
            accum_column_plan = Project(
                aggregate,
                {key_alias: ColumnRef("__key__"), loop.accum_var: ColumnRef(loop.accum_var)},
            )
            joined = Join(
                plan,
                accum_column_plan,
                BinaryOp("==", self_key, ColumnRef(key_alias)),
                how="left",
            )
        else:
            joined = plan

        follow_context = context.child()
        accum_expr: Expression = ColumnRef(loop.accum_var)
        identity = _COMBINATOR_IDENTITY.get(combinator)
        if contributions:
            if identity is not None:
                accum_expr = coalesce(ColumnRef(loop.accum_var), identity)
        else:
            # No contribution sites at all: the accum value is the identity.
            accum_expr = Literal(identity)
        follow_context.accums[loop.accum_var] = accum_expr

        joined_plan, follow_context = self._walk(
            loop.follow.statements, joined, condition, follow_context, atomic
        )
        # Subsequent statements of the enclosing block continue to see the
        # aggregate join (the accum variable stays readable), matching the
        # interpreter, where the value remains in scope only inside the
        # follow block — scripts that need it later simply keep code in the
        # follow block, so returning the joined plan is a superset that stays
        # semantically equivalent for valid programs.
        return joined_plan, follow_context

    def _collect_accum_contributions(
        self,
        accum_var: str,
        statements: Sequence[Statement],
        join_plan: LogicalPlan,
        condition: Expression,
        context: LoweringContext,
        atomic: AtomicBlock | None,
    ) -> list[LogicalPlan]:
        """Walk an accum body: emit effect queries for real effects and return
        one projection plan per assignment to the accum variable."""
        contributions: list[LogicalPlan] = []

        def walk(stmts: Sequence[Statement], cond: Expression, ctx: LoweringContext) -> None:
            for statement in stmts:
                if isinstance(statement, LetStatement):
                    ctx.locals[statement.name] = lower_expression(statement.value, ctx)
                    continue
                if isinstance(statement, LocalAssign):
                    ctx.locals[statement.name] = lower_expression(statement.value, ctx)
                    continue
                if isinstance(statement, (EffectAssign, SetInsert)):
                    target = statement.target
                    if isinstance(target, Identifier) and target.name == accum_var:
                        value = lower_expression(statement.value, ctx)
                        contributions.append(
                            Project(
                                Select(join_plan, cond),
                                {
                                    "__key__": ctx.objects[self.script.self_name].key_column(),
                                    "__value__": value,
                                },
                            )
                        )
                        continue
                    self._emit_effect_query(
                        statement,
                        join_plan,
                        cond,
                        ctx,
                        atomic,
                        set_insert=isinstance(statement, SetInsert),
                    )
                    continue
                if isinstance(statement, IfStatement):
                    lowered = lower_expression(statement.condition, ctx)
                    walk(statement.then_block.statements, BinaryOp("&&", cond, lowered), ctx.child())
                    if statement.else_block is not None:
                        walk(
                            statement.else_block.statements,
                            BinaryOp("&&", cond, UnaryOp("!", lowered)),
                            ctx.child(),
                        )
                    continue
                if isinstance(statement, AccumLoop):
                    raise SGLCompileError(
                        "nested accum-loops are not supported by the set-at-a-time compiler; "
                        "use the interpreter for this script",
                        statement.line,
                    )
                if isinstance(statement, (WaitNextTick, AtomicBlock)):
                    raise SGLCompileError(
                        f"{type(statement).__name__} is not allowed inside an accum-loop body",
                        statement.line,
                    )
                raise SGLCompileError(
                    f"cannot compile statement {type(statement).__name__} in accum body"
                )

        walk(statements, condition, context)
        return contributions
