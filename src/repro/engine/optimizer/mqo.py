"""Multi-query optimization: tick-wide shared-subplan pipelines.

The paper's tick loop executes *every* enabled script's effect queries,
every tick, over the same frozen state tables (Section 4.1).  Compiled
independently, N scripts over one class produce N plans that re-scan,
re-filter and re-join the same relations — the classic multi-query
optimization setting, with the unusual advantage that the whole query set
is known up front and repeats identically each tick.

This module finds the sharing.  Given one tick's logical plans it

1. **fingerprints** every subplan in a canonical form — ``Select`` chains
   are folded and their conjuncts sorted, scan aliases are numbered by
   traversal position so two scripts that name their loop variable
   differently still match — then
2. picks the subplans that occur at least twice (across queries *or*
   within one: an accum-loop's contribution sites re-derive the same join
   per assignment), and
3. rewrites every consumer, replacing each maximal shared subtree with a
   :class:`SharedScan` leaf that reads the subplan's once-per-tick
   materialized result, producing a DAG: shared subplans may themselves
   consume smaller shared subplans.

The result is purely logical; the :class:`~repro.engine.executor.Executor`
lowers it (``prepare_tick``) and evaluates each shared node at most once
per tick (``execute_tick``), serving consumers from the materialization —
as a :class:`~repro.engine.batch.ColumnBatch` when the shared subplan runs
on the columnar path, so consumers on the batch path share column lists
without copying a single row.

Sharing is transparent to result rows *and* row order: a materialized
subtree replays exactly the sequence the in-line subtree would have
produced, so order-sensitive consumers (``first``/``last``/``collect``
effects, transactional queries) may consume shared results freely — only
the *effect-sink* fusion (see :mod:`repro.engine.operators.shared`) is
restricted to order-insensitive combinators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.engine.algebra import (
    Aggregate,
    Fixpoint,
    Join,
    LogicalPlan,
    Project,
    RecursiveRef,
    Select,
    TableScan,
    Union,
    Values,
)
from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    BinaryOp,
    ColumnRef,
    Conditional,
    Expression,
    FunctionCall,
    Literal,
    SetLiteral,
    UnaryOp,
    Variable,
)
from repro.engine.schema import Schema

__all__ = [
    "SharedScan",
    "SharedSubplan",
    "TickEntry",
    "TickPlan",
    "fingerprint_plan",
    "build_tick_plan",
]


class SharedScan(LogicalPlan):
    """A leaf that reads the materialized result of a tick-shared subplan.

    ``source`` is this *consumer's own* equivalent subtree — it supplies
    the output schema (consumer-side column names) and a correct fallback
    when no shared materialization is available, so a plan containing
    ``SharedScan`` nodes remains executable by any planner.

    ``alias_renames`` maps the representative subplan's scan aliases to
    this consumer's aliases (only the differing ones); the physical source
    operator applies the corresponding column renames when serving rows or
    batches.
    """

    def __init__(
        self,
        fingerprint: str,
        source: LogicalPlan,
        alias_renames: Mapping[str, str] | None = None,
    ):
        self.fingerprint = fingerprint
        self.source = source
        self.alias_renames = dict(alias_renames or {})

    def children(self) -> tuple[LogicalPlan, ...]:
        # Opaque to rewrites: the shared subtree was already optimized
        # before sharing was decided, and rewriting *through* the boundary
        # would break the fingerprint ↔ materialization correspondence.
        return ()

    def walk(self) -> Iterable[LogicalPlan]:
        # Include the source so referenced_tables() stays accurate for
        # cache-invalidation decisions made over rewritten plans.
        yield self
        yield from self.source.walk()

    def output_schema(self, catalog: Catalog) -> Schema:
        return self.source.output_schema(catalog)

    def node_label(self) -> str:
        return f"SharedScan({self.fingerprint[:24]}…)" if len(
            self.fingerprint
        ) > 24 else f"SharedScan({self.fingerprint})"


# ------------------------------------------------------------------------------------
# canonical fingerprints
# ------------------------------------------------------------------------------------


def _canon_expr(expr: Expression, alias_tokens: Mapping[str, str]) -> str:
    """Render *expr* canonically, numbering scan aliases per *alias_tokens*."""
    if isinstance(expr, ColumnRef):
        head, dot, tail = expr.name.partition(".")
        if dot and head in alias_tokens:
            return f"{alias_tokens[head]}.{tail}"
        return expr.name
    if isinstance(expr, Literal):
        return f"lit:{expr.value!r}"
    if isinstance(expr, Variable):
        return f"var:{expr.name}"
    if isinstance(expr, UnaryOp):
        return f"{expr.op}({_canon_expr(expr.operand, alias_tokens)})"
    if isinstance(expr, BinaryOp):
        left = _canon_expr(expr.left, alias_tokens)
        right = _canon_expr(expr.right, alias_tokens)
        return f"({left} {expr.op} {right})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(_canon_expr(a, alias_tokens) for a in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, Conditional):
        return (
            f"if({_canon_expr(expr.condition, alias_tokens)}, "
            f"{_canon_expr(expr.if_true, alias_tokens)}, "
            f"{_canon_expr(expr.if_false, alias_tokens)})"
        )
    if isinstance(expr, SetLiteral):
        elements = sorted(_canon_expr(e, alias_tokens) for e in expr.elements)
        return "{" + ", ".join(elements) + "}"
    return repr(expr)


def _canon_conjuncts(
    predicates: Sequence[Expression], alias_tokens: Mapping[str, str]
) -> str:
    """Split, canonicalize and sort AND-conjuncts (conjunction order is
    semantically free for the null-safe expression language, and both
    filter paths already apply conjuncts in rewrite-dependent order)."""
    conjuncts: list[str] = []
    for predicate in predicates:
        parts = (
            predicate.conjuncts()
            if isinstance(predicate, BinaryOp)
            else [predicate]
        )
        conjuncts.extend(_canon_expr(p, alias_tokens) for p in parts)
    return " & ".join(sorted(conjuncts))


def _fingerprint(plan: LogicalPlan, aliases: list[str]) -> str:
    """Recursive canonical form; appends scan aliases to *aliases* in
    deterministic (children-first, left-to-right) traversal order."""

    def tokens() -> dict[str, str]:
        return {alias: f"@{i}" for i, alias in enumerate(aliases)}

    if isinstance(plan, TableScan):
        if plan.alias and plan.alias not in aliases:
            aliases.append(plan.alias)
        token = tokens().get(plan.alias, "") if plan.alias else ""
        return f"scan({plan.table_name} as {token})"
    if isinstance(plan, Values):
        # Inline relations fingerprint by identity: sharing only when two
        # plans literally reference the same Values object.
        return f"values#{id(plan)}"
    if isinstance(plan, SharedScan):
        return f"shared({plan.fingerprint})"
    if isinstance(plan, Select):
        predicates: list[Expression] = []
        node: LogicalPlan = plan
        while isinstance(node, Select):
            predicates.append(node.predicate)
            node = node.child
        child = _fingerprint(node, aliases)
        return f"σ[{_canon_conjuncts(predicates, tokens())}]({child})"
    if isinstance(plan, Project):
        child = _fingerprint(plan.child, aliases)
        mapping = tokens()
        cols = ", ".join(
            f"{name}={_canon_expr(expr, mapping)}" for name, expr in plan.projections
        )
        types = (
            "|" + ",".join(f"{k}:{v}" for k, v in sorted(plan.types.items(), key=lambda kv: kv[0]))
            if plan.types
            else ""
        )
        return f"π[{cols}{types}]({child})"
    if isinstance(plan, Join):
        left = _fingerprint(plan.left, aliases)
        right = _fingerprint(plan.right, aliases)
        condition = (
            _canon_conjuncts([plan.condition], tokens())
            if plan.condition is not None
            else ""
        )
        return f"⋈[{plan.how}|{condition}]({left}, {right})"
    if isinstance(plan, Aggregate):
        child = _fingerprint(plan.child, aliases)
        mapping = tokens()

        def canon_column(name: str) -> str:
            head, dot, tail = name.partition(".")
            if dot and head in mapping:
                return f"{mapping[head]}.{tail}"
            return name

        groups = ", ".join(canon_column(g) for g in plan.group_by)
        aggs = ", ".join(
            f"{spec.name}={spec.func}("
            + ("*" if spec.argument is None else _canon_expr(spec.argument, mapping))
            + ")"
            for spec in plan.aggregates
        )
        return f"γ[{groups}|{aggs}]({child})"
    if isinstance(plan, Union):
        left = _fingerprint(plan.left, aliases)
        right = _fingerprint(plan.right, aliases)
        return f"∪({left}, {right})"
    if isinstance(plan, Fixpoint):
        base = _fingerprint(plan.base, aliases)
        step = _fingerprint(plan.step, aliases)
        cap = "∞" if plan.max_rounds is None else str(plan.max_rounds)
        return f"μ[{cap}]({base}, {step})"
    if isinstance(plan, RecursiveRef):
        # The accumulator reference is positional inside its Fixpoint —
        # its name and schema are the whole identity.
        return f"rec[{plan.name}|{','.join(plan.schema.names)}]"
    # Unknown node type: never shared, never matched.
    return f"opaque#{id(plan)}"


def fingerprint_plan(plan: LogicalPlan) -> tuple[str, tuple[str, ...]]:
    """Canonical fingerprint of *plan* plus its scan aliases in traversal
    order.  Two subplans with equal fingerprints compute the same relation
    (same rows, same row order) modulo renaming scan aliases positionally.
    """
    aliases: list[str] = []
    fp = _fingerprint(plan, aliases)
    return fp, tuple(aliases)


# ------------------------------------------------------------------------------------
# the tick-level shared DAG
# ------------------------------------------------------------------------------------


@dataclass
class SharedSubplan:
    """One shared node of the tick DAG."""

    fingerprint: str
    #: Representative subtree, itself rewritten against smaller shared
    #: nodes (nested ``SharedScan`` leaves), ready for lowering.
    plan: LogicalPlan
    #: The representative's scan aliases in canonical order — consumers
    #: with different alias spellings rename positionally against these.
    aliases: tuple[str, ...]
    #: Number of ``SharedScan`` references to this node across the tick
    #: (from entry plans and other shared subplans); always >= 2.
    consumers: int = 0
    #: Node count of the original subtree (topological order key).
    size: int = 0


@dataclass
class TickEntry:
    """One tick query after shared-subplan substitution."""

    key: str
    plan: LogicalPlan
    rewritten: LogicalPlan
    shared_refs: tuple[str, ...] = ()


@dataclass
class TickPlan:
    """The tick-wide shared-plan DAG: rewritten entries plus shared nodes
    in dependency order (every shared node only references strictly
    smaller ones, so evaluating in list order satisfies all consumers)."""

    entries: list[TickEntry] = field(default_factory=list)
    shared: list[SharedSubplan] = field(default_factory=list)

    @property
    def shared_reference_count(self) -> int:
        return sum(node.consumers for node in self.shared)

    @property
    def evaluations_saved(self) -> int:
        """Subplan evaluations avoided per tick versus unshared execution."""
        return sum(node.consumers - 1 for node in self.shared)


#: Node types worth materializing.  Bare scans are excluded (the batch
#: path already snapshot-caches them and the row path would only trade a
#: scan for a copy); condition-less joins are excluded because their
#: streamed cross product must never be materialized.
def _shareable(plan: LogicalPlan) -> bool:
    if isinstance(plan, Fixpoint):
        # A fixpoint is a closed recursive computation: identical closures
        # across scripts materialize once per tick.  Checked before the
        # RecursiveRef guard below — the step *inside* necessarily contains
        # the accumulator reference, but the fixpoint as a whole does not
        # depend on any outer binding.
        return True
    if any(isinstance(node, RecursiveRef) for node in plan.walk()):
        # A subtree still referencing the accumulator is re-bound every
        # round; materializing one round's result would be wrong for all
        # the others.
        return False
    if isinstance(plan, (Select, Project, Aggregate, Union)):
        return True
    if isinstance(plan, Join):
        return plan.condition is not None
    return False


def _rewrite(
    plan: LogicalPlan,
    shared_fps: set[str],
    rep_aliases: Mapping[str, tuple[str, ...]],
    refs: list[str],
    *,
    skip_root: bool = False,
) -> LogicalPlan:
    """Replace maximal shared subtrees of *plan* with ``SharedScan`` leaves,
    appending each substituted fingerprint to *refs*."""
    if not skip_root and _shareable(plan):
        fp, aliases = fingerprint_plan(plan)
        if fp in shared_fps:
            reference = rep_aliases[fp]
            renames = {
                rep: mine for rep, mine in zip(reference, aliases) if rep != mine
            }
            refs.append(fp)
            return SharedScan(fp, plan, renames)
    children = plan.children()
    if not children:
        return plan
    new_children = [
        _rewrite(child, shared_fps, rep_aliases, refs) for child in children
    ]
    if all(new is old for new, old in zip(new_children, children)):
        return plan
    return plan.with_children(new_children)


def build_tick_plan(entries: Sequence[tuple[str, LogicalPlan]]) -> TickPlan:
    """Build the shared-subplan DAG for one tick's optimized logical plans.

    ``entries`` are ``(stable key, optimized logical plan)`` pairs, in tick
    execution order.  Fingerprints every subtree of every plan, selects
    subplans occurring at least twice, and iteratively prunes candidates
    whose substitution would leave them with fewer than two actual
    references (a subtree shared only *inside* two occurrences of a larger
    shared subtree collapses into it).
    """
    # Pass 1: count subtree fingerprints and remember first occurrences.
    counts: dict[str, int] = {}
    representatives: dict[str, tuple[LogicalPlan, tuple[str, ...], int]] = {}
    for _, plan in entries:
        for node in plan.walk():
            if not _shareable(node):
                continue
            fp, aliases = fingerprint_plan(node)
            counts[fp] = counts.get(fp, 0) + 1
            if fp not in representatives:
                representatives[fp] = (node, aliases, len(list(node.walk())))

    shared_fps = {fp for fp, count in counts.items() if count >= 2}
    rep_aliases = {fp: representatives[fp][1] for fp in representatives}

    # Pass 2: substitute and prune until every surviving shared node has at
    # least two references from reachable plans (entries or other survivors).
    while True:
        entry_refs: dict[str, list[str]] = {}
        rewritten: dict[str, LogicalPlan] = {}
        for key, plan in entries:
            refs: list[str] = []
            rewritten[key] = _rewrite(plan, shared_fps, rep_aliases, refs)
            entry_refs[key] = refs

        shared_defs: dict[str, tuple[LogicalPlan, list[str]]] = {}
        for fp in shared_fps:
            node, _, _ = representatives[fp]
            refs = []
            shared_defs[fp] = (
                _rewrite(node, shared_fps, rep_aliases, refs, skip_root=True),
                refs,
            )

        # Reachability + reference counting from the entries down.
        ref_counts: dict[str, int] = dict.fromkeys(shared_fps, 0)
        queue = [fp for refs in entry_refs.values() for fp in refs]
        for fp in queue:
            ref_counts[fp] += 1
        seen: set[str] = set()
        while queue:
            fp = queue.pop()
            if fp in seen:
                continue
            seen.add(fp)
            for nested in shared_defs[fp][1]:
                ref_counts[nested] += 1
                queue.append(nested)

        drop = {fp for fp in shared_fps if ref_counts[fp] < 2 or fp not in seen}
        if not drop:
            break
        shared_fps -= drop

    shared = [
        SharedSubplan(
            fingerprint=fp,
            plan=shared_defs[fp][0],
            aliases=rep_aliases[fp],
            consumers=ref_counts[fp],
            size=representatives[fp][2],
        )
        for fp in shared_fps
    ]
    # Dependency order: a shared node only references strictly smaller
    # subtrees, so ascending size is a valid topological order.
    shared.sort(key=lambda node: (node.size, node.fingerprint))
    return TickPlan(
        entries=[
            TickEntry(
                key=key,
                plan=plan,
                rewritten=rewritten[key],
                shared_refs=tuple(entry_refs[key]),
            )
            for key, plan in entries
        ],
        shared=shared,
    )
