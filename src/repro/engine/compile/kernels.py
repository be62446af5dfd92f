"""Plan-to-kernel compilation: one fused Python function per pipeline.

The batch path (:mod:`repro.engine.operators.batch_ops`) already avoids
per-row dicts, but it still interprets the physical tree operator by
operator — every filter is a separate pass allocating a selection list,
every aggregate argument goes through a compiled-closure dispatch per
element.  This module walks an *optimized logical plan* and, when the
whole pipeline fits a fusable shape, emits a single Python function that
runs scan → filter → join → project → aggregate in one loop nest over the
input column lists.  The source is built by codegen
(:mod:`repro.engine.compile.exprgen`), ``compile()``d once, and cached by
the MQO plan fingerprint, so repeated ticks and deduped standing queries
pay codegen exactly once.

Fusable shapes — everything else falls back to the interpreted tree:

* a stack of ``Select`` / ``Project`` / ``Aggregate`` nodes over a core;
* the core is a leaf (``TableScan`` / ``SharedScan``) or an inner ``Join``
  whose sides are ``Select``-chains over leaves and whose condition is an
  equi-join or the band-join (range probe) shape.

Equivalence contract: a kernel produces *exactly* the rows, in exactly
the order, that the interpreted operators it replaces would produce, and
feeds the index advisor the same probe statistics.  Plan *choice* stays
identical too.  A band join follows the interpreted planner's own rule:
when a registered range-capable index covers probe columns of the inner
table the kernel probes that index
(:class:`~repro.engine.operators.joins.IndexProbeJoinOp`'s loop: candidates
in the index's ``range_search`` order, every bound re-checked, the inner
side's Select predicates folded into the residual, the index re-resolved
per execution), otherwise it builds
:class:`~repro.engine.operators.joins.RangeProbeJoinOp`'s transient grid.
The compiler declines — with a reason, see :class:`KernelDecline` —
whenever the interpreted planner would answer a Select from an index
scan, whenever an expression is not provably batch-compilable, and for
order-pathological shapes like duplicate aggregate output names.

``SharedScan`` leaves become kernel inputs served by the tick pipeline's
shared materializations.  A :class:`KernelOp` is a batch operator like any
other: the physical planner tries it first at every node of a batch tree,
so it can be the root under a :class:`BatchBridgeOp` or a child of
interpreted batch operators, and ``EffectSink`` fusion composes unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    LogicalPlan,
    Project,
    Select,
    TableScan,
)
from repro.engine.batch import ColumnBatch
from repro.engine.compile.exprgen import ExprGen, KernelDecline, SourceBuilder
from repro.engine.errors import SchemaError
from repro.engine.expressions import (
    BinaryOp,
    Expression,
    Variable,
    batch_supported,
    resolve_batch_column,
)
from repro.engine.operators.batch_ops import (
    BatchOperator,
    BatchTableScanOp,
    _fold_values,
)
from repro.engine.operators.joins import band_probe_candidates
from repro.engine.optimizer.mqo import SharedScan, fingerprint_plan
from repro.engine.optimizer.physical import (
    _extract_equi_keys,
    _extract_range_probe,
    match_band_index,
)
from repro.engine.table import Table

__all__ = ["KernelLowering", "KernelOp", "KernelProgram"]


# -- compiled artifacts ----------------------------------------------------------------------


@dataclass
class KernelProgram:
    """One ``compile()``d fused function plus the metadata to re-wire it.

    The program is plan-shape specific but *instance* independent: input
    operators (and the advisor stats hook) are rebuilt per lowering from
    the concrete plan, so one cached program serves every plan with the
    same fingerprint.
    """

    source: str
    fn: Callable[..., ColumnBatch]
    names: tuple[str, ...]
    n_inputs: int
    uses_hook: bool
    fused_nodes: int


class KernelOp(BatchOperator):
    """Batch operator that runs a compiled kernel over its input batches.

    A regular member of a batch tree, so the executor, shared-subplan
    materialization, effect-sink fusion and ``explain`` all treat it like
    any other batch operator.  ``index_probe`` — ``(inner table, index
    name, probe columns)`` — is set for a band kernel that probes a
    persistent index; the index is resolved per execution, never captured.
    """

    def __init__(
        self,
        schema: Any,
        program: KernelProgram,
        children: tuple[BatchOperator, ...],
        stats_hook: Callable[[int, float, int], None] | None = None,
        index_probe: tuple[Table, str, tuple[str, ...]] | None = None,
    ):
        super().__init__(schema, program.names, children)
        self.program = program
        self.stats_hook = stats_hook
        self.index_probe = index_probe

    def execute(self) -> ColumnBatch:
        inputs = [child.execute() for child in self.children]
        if self.index_probe is None:
            return self.program.fn(inputs, self.stats_hook)
        table = self.index_probe[0]
        # Same table version as the inner input batch above: nothing
        # mutates the table between the two snapshot reads.
        probe = (band_probe_candidates(*self.index_probe), table.batch_positions())
        return self.program.fn(inputs, self.stats_hook, probe)

    def label(self) -> str:
        probe = ""
        if self.index_probe is not None:
            probe = f", probes {self.index_probe[0].name}.{self.index_probe[1]}"
        return (
            f"CompiledKernel({self.program.fused_nodes} nodes fused, "
            f"{len(self.children)} input(s){probe})"
        )


# -- pipeline analysis -----------------------------------------------------------------------


@dataclass
class _FilterStage:
    conjuncts: list[Expression]


@dataclass
class _ProjectStage:
    projections: tuple[tuple[str, Expression], ...]


@dataclass
class _AggStage:
    group_names: tuple[str, ...]
    group_columns: tuple[str, ...]
    aggregates: tuple[AggregateSpec, ...]


@dataclass
class _ScanCore:
    pass


@dataclass
class _EquiCore:
    left_filters: list[Expression]
    right_filters: list[Expression]
    left_keys: list[Expression]
    right_keys: list[Expression]
    residual: list[Expression]


@dataclass
class _BandCore:
    left_filters: list[Expression]
    right_filters: list[Expression]
    dimensions: list[tuple[str, Expression, Expression]]
    residual: list[Expression]


@dataclass
class _Pipeline:
    core: Any
    stages: list[Any]
    leaf_ops: list[BatchOperator]
    out_names: tuple[str, ...]
    hook: Callable[[int, float, int], None] | None
    signature: str
    fused_nodes: int
    #: Set when a band core probes a persistent index (IndexProbeJoinOp's
    #: loop) instead of building the transient grid (RangeProbeJoinOp's):
    #: ``(inner table, index name, probe columns in the table's names)``.
    index_probe: tuple[Table, str, tuple[str, ...]] | None = None


def _conjuncts_of(predicate: Expression) -> list[Expression]:
    if isinstance(predicate, BinaryOp):
        return predicate.conjuncts()
    return [predicate]


def _strip_selects(plan: LogicalPlan) -> tuple[list[Select], LogicalPlan]:
    """Peel a Select chain; returns (selects outermost-first, the base node)."""
    selects: list[Select] = []
    node = plan
    while isinstance(node, Select):
        selects.append(node)
        node = node.child
    return selects, node


def _side_filters(selects: list[Select]) -> list[Expression]:
    """Conjuncts of a side's Select chain in row-path evaluation order
    (innermost filter first, as nested FilterOps would apply them)."""
    out: list[Expression] = []
    for select in reversed(selects):
        out.extend(_conjuncts_of(select.predicate))
    return out


def _decline_if_index_scan(planner: Any, selects: list[Select], leaf: LogicalPlan) -> None:
    """Decline when the interpreted planner would index-scan this Select-over-scan.

    Mirrors ``_lower_select`` / ``_lower_batch_node`` exactly: only the
    Select node *directly* above a ``TableScan`` is eligible, and only
    with ``use_indexes`` on.  When it matches, the interpreted path
    produces rows in index order, so the kernel must decline to stay
    equivalent.
    """
    if not planner.use_indexes or not selects or not isinstance(leaf, TableScan):
        return
    if planner._match_index(leaf.table_name, selects[-1].predicate) is not None:
        raise KernelDecline("index scan preferred", "index-select")


def _leaf_batch_op(leaf: LogicalPlan, planner: Any) -> BatchOperator:
    """Build the batch source operator for a pipeline leaf."""
    op: BatchOperator | None = None
    if isinstance(leaf, TableScan):
        if planner.catalog.has_table(leaf.table_name):
            table = planner.catalog.table(leaf.table_name)
            op = BatchTableScanOp(table, leaf.output_schema(planner.catalog), leaf.alias)
    else:  # SharedScan
        if planner.shared_lowering is not None:
            op = planner.shared_lowering.batch_source(leaf)
        if op is None:
            # No shared materialization available: serve the consumer's own
            # equivalent source subtree, like the interpreted fallback does.
            op = planner._lower_batch(leaf.source)
    if op is None:
        raise KernelDecline("leaf has no batch source", "bare-leaf")
    return op


def _require_batch(expressions: Sequence[Expression], names: Sequence[str]) -> None:
    for expression in expressions:
        if not batch_supported(expression, names):
            raise KernelDecline(repr(expression))


def _analyze(plan: LogicalPlan, planner: Any) -> _Pipeline:
    """Match *plan* against the fusable pipeline grammar.

    Raises :class:`KernelDecline` (with its reason) for everything else.
    """
    catalog = planner.catalog

    stack: list[LogicalPlan] = []
    node = plan
    while isinstance(node, (Select, Project, Aggregate)):
        stack.append(node)
        node = node.child

    if isinstance(node, (TableScan, SharedScan)):
        if isinstance(stack[-1], Select):
            _decline_if_index_scan(planner, [stack[-1]], node)
        leaf = _leaf_batch_op(node, planner)
        pipeline = _Pipeline(_ScanCore(), [], [leaf], tuple(leaf.names), None, "", 1)
    elif isinstance(node, Join):
        pipeline = _analyze_join(node, planner)
    else:
        raise KernelDecline(type(node).__name__, "bare-leaf")
    pipeline.fused_nodes += len(stack)

    names = pipeline.out_names
    stages = pipeline.stages
    for node in reversed(stack):
        if isinstance(node, Select):
            conjuncts = _conjuncts_of(node.predicate)
            _require_batch(conjuncts, names)
            stages.append(_FilterStage(conjuncts))
        elif isinstance(node, Project):
            _require_batch([e for _, e in node.projections], names)
            stages.append(_ProjectStage(tuple(node.projections)))
            names = tuple(n for n, _ in node.projections)
        else:  # Aggregate
            try:
                child_schema = node.child.output_schema(catalog)
                resolved = [child_schema.resolve(g) for g in node.group_by]
            except SchemaError as exc:
                raise KernelDecline(str(exc)) from None
            group_columns = []
            for resolved_name in resolved:
                batch_name = resolve_batch_column(resolved_name, names)
                if batch_name is None:
                    raise KernelDecline(resolved_name)
                group_columns.append(batch_name)
            _require_batch(
                [s.argument for s in node.aggregates if s.argument is not None], names
            )
            out = tuple(node.group_by) + tuple(s.name for s in node.aggregates)
            if len(set(out)) != len(out):
                # Colliding output names corrupt any columnar layout.
                raise KernelDecline(f"duplicate output names {out}")
            stages.append(
                _AggStage(tuple(node.group_by), tuple(group_columns), tuple(node.aggregates))
            )
            names = out

    pipeline.out_names = names
    pipeline.signature = _signature(pipeline)
    return pipeline


def _analyze_join(join: Join, planner: Any) -> _Pipeline:
    """The stage-less pipeline of a join core and its sides' Select chains."""
    catalog = planner.catalog
    if join.how != "inner" or join.condition is None:
        raise KernelDecline(f"{join.how} join", "join-shape")
    left_selects, left_leaf = _strip_selects(join.left)
    right_selects, right_leaf = _strip_selects(join.right)
    for leaf in (left_leaf, right_leaf):
        if not isinstance(leaf, (TableScan, SharedScan)):
            raise KernelDecline(f"join side over {type(leaf).__name__}", "join-shape")
    conjuncts = _conjuncts_of(join.condition)
    left_schema = join.left.output_schema(catalog)
    right_schema = join.right.output_schema(catalog)
    equi = _extract_equi_keys(conjuncts, left_schema, right_schema)
    probe = None if equi else _extract_range_probe(conjuncts, left_schema, right_schema)
    if not equi and not probe:
        raise KernelDecline("neither equi nor band", "join-shape")
    # The interpreted planner's band-join rule: a registered index covering
    # probe columns is probed (the inner side's own operator tree, index
    # scans included, is bypassed); otherwise the transient grid.
    matched = (
        match_band_index(catalog, join.right, probe[0])
        if probe and planner.use_indexes
        else None
    )
    _decline_if_index_scan(planner, left_selects, left_leaf)
    if matched is None:
        _decline_if_index_scan(planner, right_selects, right_leaf)
    left_op = _leaf_batch_op(left_leaf, planner)
    right_op = _leaf_batch_op(right_leaf, planner)
    left_names = tuple(left_op.names)
    right_names = tuple(right_op.names)
    combined = left_names + right_names
    left_filters = _side_filters(left_selects)
    right_filters = _side_filters(right_selects)
    _require_batch(left_filters, left_names)
    hook = None
    index_probe = None
    if equi:
        left_keys, right_keys, residual = equi
        _require_batch(right_filters, right_names)
        _require_batch(left_keys, left_names)
        _require_batch(right_keys, right_names)
        core: Any = _EquiCore(left_filters, right_filters, left_keys, right_keys, residual)
    else:
        dimensions, residual = probe
        for column, low, high in dimensions:
            # The probe loops read inner coordinates by exact key.
            if column not in right_names:
                raise KernelDecline(column)
            _require_batch([low, high], left_names)
        if matched is not None:
            table, index_name, _alias, folded = matched
            try:
                base_columns = tuple(
                    table.schema.resolve(column.split(".")[-1]) for column, _, _ in dimensions
                )
            except SchemaError as exc:
                raise KernelDecline(str(exc)) from None
            index_probe = (table, index_name, base_columns)
            # As _try_index_probe_join folds them: the inner side's Select
            # predicates run as residuals on every re-checked candidate.
            residual = list(residual) + [c for p in folded for c in _conjuncts_of(p)]
            right_filters = []
        _require_batch(right_filters, right_names)
        core = _BandCore(left_filters, right_filters, list(dimensions), residual)
        hook = planner.band_hook(join.right, dimensions)
    _require_batch(residual, combined)
    fused = 1 + len(left_selects) + len(right_selects)
    return _Pipeline(core, [], [left_op, right_op], combined, hook, "", fused, index_probe)


def _signature(pipeline: _Pipeline) -> str:
    """A structural signature of the analyzed pipeline.

    Joins the cache key alongside the MQO fingerprint: the fingerprint
    canonicalizes conjunct order, while generated code preserves *this
    instance's* evaluation and probe order, so two fingerprint-equal plans
    with different in-memory shapes must not share a kernel.
    """
    parts: list[str] = [type(pipeline.core).__name__]
    for op in pipeline.leaf_ops:
        parts.append(",".join(op.names))
    core = pipeline.core
    if isinstance(core, (_EquiCore, _BandCore)):
        parts.append(";".join(repr(e) for e in core.left_filters))
        parts.append(";".join(repr(e) for e in core.right_filters))
        parts.append(";".join(repr(e) for e in core.residual))
    if isinstance(core, _EquiCore):
        parts.append(";".join(repr(e) for e in core.left_keys))
        parts.append(";".join(repr(e) for e in core.right_keys))
    if isinstance(core, _BandCore):
        parts.append(
            ";".join(f"{c}>={lo!r}&<={hi!r}" for c, lo, hi in core.dimensions)
        )
        parts.append("grid" if pipeline.index_probe is None else "index")
    for stage in pipeline.stages:
        if isinstance(stage, _FilterStage):
            parts.append("σ" + ";".join(repr(c) for c in stage.conjuncts))
        elif isinstance(stage, _ProjectStage):
            parts.append(
                "π" + ";".join(f"{n}={e!r}" for n, e in stage.projections)
            )
        else:
            parts.append(
                "γ"
                + ",".join(stage.group_names)
                + "/"
                + ",".join(stage.group_columns)
                + "|"
                + ";".join(s.label() for s in stage.aggregates)
            )
    parts.append(",".join(pipeline.out_names))
    return "\x1f".join(parts)


# -- row contexts ----------------------------------------------------------------------------


def _scan_columns(batch: ColumnBatch, names: tuple[str, ...]) -> list[list]:
    """Dense value lists (in selection order) for the named columns.

    Scan-core kernels iterate ``zip()`` over these instead of subscripting
    per row — for the common dense table batch this is a zero-copy view of
    the column lists; selected or virtual columns are gathered once.
    """
    cols = [batch.columns[name] for name in names]
    if batch.selection is None and all(type(c) is list for c in cols):
        return cols
    idx = batch.indices()
    return [[c[i] for i in idx] for c in cols]


class _ZipRowCtx:
    """Row access for the scan core's zip loop: every used column becomes
    a loop variable bound in the (patched-in) loop header."""

    def __init__(self, names: tuple[str, ...], cg: "_Codegen"):
        self.names = names
        self.cg = cg
        self.used: list[tuple[str, str]] = []  # (column, loop var) in first-use order
        self._vars: dict[str, str] = {}

    def fragment(self, name: str) -> str:
        var = self._vars.get(name)
        if var is None:
            var = self.cg.b.temp("_r")
            self._vars[name] = var
            self.used.append((name, var))
        return var

    def out_fragment(self, k: int) -> str:
        return self.fragment(self.names[k])


class _BatchCtx:
    """Column access over one input batch at a loop index variable."""

    def __init__(self, names: tuple[str, ...], input_idx: int, index_var: str, cg: "_Codegen"):
        self.names = names
        self.input_idx = input_idx
        self.index_var = index_var
        self.cg = cg

    def fragment(self, name: str) -> str:
        return f"{self.cg.col_var(self.input_idx, name)}[{self.index_var}]"

    def out_fragment(self, k: int) -> str:
        return self.fragment(self.names[k])


class _PairCtx:
    """Column access over a (left row, right row) join pair.

    Duplicate names resolve to the right side, matching row-dict merge
    (right update wins) and the batch join's column-dict gather.
    """

    def __init__(self, left: _BatchCtx, right: _BatchCtx):
        self.left = left
        self.right = right
        self.names = left.names + right.names
        self._right_set = set(right.names)

    def fragment(self, name: str) -> str:
        if name in self._right_set:
            return self.right.fragment(name)
        return self.left.fragment(name)

    def out_fragment(self, k: int) -> str:
        if k < len(self.left.names):
            return self.left.fragment(self.left.names[k])
        return self.right.fragment(self.right.names[k - len(self.left.names)])


class _LocalCtx:
    """Access over locals bound by a Project or Aggregate stage."""

    def __init__(self, names: tuple[str, ...], frags: list[str]):
        self.names = names
        self.frags = frags
        # Right-wins for duplicate names, like dict construction would.
        self._by_name: dict[str, str] = {}
        for name, frag in zip(names, frags):
            self._by_name[name] = frag

    def fragment(self, name: str) -> str:
        try:
            return self._by_name[name]
        except KeyError:
            raise KernelDecline(name) from None

    def out_fragment(self, k: int) -> str:
        return self.frags[k]


# -- code generation -------------------------------------------------------------------------

#: Aggregates folded with inline running state; everything else gathers
#: the group's values and defers to ``_fold_values`` (exact batch-path
#: semantics either way).
_INLINE_AGGS = ("count", "sum", "min", "max")


class _Codegen:
    """Emits the fused kernel function for one analyzed pipeline."""

    def __init__(self, pipeline: _Pipeline):
        self.p = pipeline
        self.b = SourceBuilder()
        self.head: list[str] = []
        self.lines: list[str] = []
        self.indent = 1
        self._col_cache: dict[tuple[int, str], str] = {}
        #: Row variables proven non-None by an enclosing filter guard —
        #: later aggregate updates on them skip the null re-check.
        self.non_null: set[str] = set()

    # -- emission helpers --------------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def head_line(self, text: str) -> None:
        self.head.append("    " + text)

    def col_var(self, input_idx: int, name: str) -> str:
        """Hoist one input column list into a local, on first use."""
        key = (input_idx, name)
        var = self._col_cache.get(key)
        if var is None:
            var = self.b.temp("_col")
            self._col_cache[key] = var
            self.head_line(f"{var} = _in{input_idx}.columns[{name!r}]")
        return var

    def gen(self, ctx: Any) -> ExprGen:
        def resolver(node: Any) -> str:
            if isinstance(node, Variable):
                # Variables bind by exact key only (compile_batch semantics).
                if node.name not in ctx.names:
                    raise KernelDecline(node.name)
                return ctx.fragment(node.name)
            resolved = resolve_batch_column(node.name, ctx.names)
            if resolved is None:
                raise KernelDecline(node.name)
            return ctx.fragment(resolved)

        return ExprGen(resolver, self.b)

    def emit_filters(self, ctx: Any, conjuncts: Sequence[Expression]) -> None:
        # Positive nesting (rather than `if not ...: continue`) saves the
        # negation on every row; everything downstream indents deeper.
        gen = self.gen(ctx)
        for conjunct in conjuncts:
            self.line(f"if {gen.boolean(conjunct)}:")
            self.indent += 1
            self.non_null.update(gen.proved_non_null)

    # -- cores -------------------------------------------------------------------------------

    def emit_core(self) -> Any:
        core = self.p.core
        if isinstance(core, _ScanCore):
            return self._emit_scan_core()
        if isinstance(core, _EquiCore):
            return self._emit_equi_core(core)
        return self._emit_band_core(core)

    def _emit_scan_core(self) -> _ZipRowCtx:
        # The loop header is patched in at assembly time, once the body has
        # revealed which columns the pipeline actually reads.
        self._scan_marker = len(self.lines)
        self.lines.append("")
        self.indent += 1
        return _ZipRowCtx(tuple(self.p.leaf_ops[0].names), self)

    def _patch_scan_header(self, ctx: _ZipRowCtx) -> None:
        used = ctx.used
        header: list[str]
        if not used:
            header = ["for _ in range(len(_in0)):"]
        else:
            dense = self.b.temp("_dc")
            cols = ", ".join(repr(name) for name, _ in used)
            header = [f"{dense} = _scan_cols(_in0, ({cols},))"]
            if len(used) == 1:
                header.append(f"for {used[0][1]} in {dense}[0]:")
            else:
                target = ", ".join(var for _, var in used)
                sources = ", ".join(f"{dense}[{k}]" for k in range(len(used)))
                header.append(f"for {target} in zip({sources}):")
        self.lines[self._scan_marker] = "\n".join("    " + h for h in header)

    def _emit_equi_core(self, core: _EquiCore) -> _PairCtx:
        build = self.b.temp("_bld")
        bget = self.b.temp("_bget")
        self.head_line(f"{build} = {{}}")
        self.head_line(f"{bget} = {build}.get")
        right_ctx = _BatchCtx(tuple(self.p.leaf_ops[1].names), 1, "_j", self)
        left_ctx = _BatchCtx(tuple(self.p.leaf_ops[0].names), 0, "_i", self)

        # Build side: right input in order, skipping null keys.
        self.line("for _j in _in1.indices():")
        self.indent += 1
        self.emit_filters(right_ctx, core.right_filters)
        rgen = self.gen(right_ctx)
        key_vars = []
        for key in core.right_keys:
            var = self.b.temp("_k")
            self.line(f"{var} = {rgen.value(key)}")
            self.line(f"if {var} is None: continue")
            key_vars.append(var)
        key_tuple = "(" + ", ".join(key_vars) + ("," if len(key_vars) == 1 else "") + ")"
        bucket = self.b.temp("_bkt")
        self.line(f"{bucket} = {bget}({key_tuple})")
        self.line(f"if {bucket} is None:")
        self.indent += 1
        self.line(f"{bucket} = {build}[{key_tuple}] = []")
        self.indent -= 1
        self.line(f"{bucket}.append(_j)")
        self.indent = 1

        # Probe side: left input in order, matches in build order.
        self.line("for _i in _in0.indices():")
        self.indent += 1
        self.emit_filters(left_ctx, core.left_filters)
        lgen = self.gen(left_ctx)
        probe_vars = []
        for key in core.left_keys:
            var = self.b.temp("_q")
            self.line(f"{var} = {lgen.value(key)}")
            self.line(f"if {var} is None: continue")
            probe_vars.append(var)
        probe_tuple = "(" + ", ".join(probe_vars) + ("," if len(probe_vars) == 1 else "") + ")"
        matches = self.b.temp("_m")
        self.line(f"{matches} = {bget}({probe_tuple})")
        self.line(f"if {matches} is None: continue")
        self.line(f"for _j in {matches}:")
        self.indent += 1
        pair = _PairCtx(left_ctx, right_ctx)
        self.emit_filters(pair, core.residual)
        return pair

    def _emit_side_selection(self, ctx: _BatchCtx, filters: list[Expression]) -> str:
        """Bind a band-join side's surviving indices (its Select chain applied)."""
        sel = self.b.temp("_sel")
        source = f"_in{ctx.input_idx}.indices()"
        if not filters:
            self.line(f"{sel} = {source}")
            return sel
        self.head_line(f"{sel} = []")
        self.head_line(f"{sel}a = {sel}.append")
        self.line(f"for {ctx.index_var} in {source}:")
        self.indent += 1
        self.emit_filters(ctx, filters)
        self.line(f"{sel}a({ctx.index_var})")
        self.indent = 1
        return sel

    def _emit_band_core(self, core: _BandCore) -> _PairCtx:
        """The band join's loop nest, probe statistics included.

        Replicates ``IndexProbeJoinOp._produce`` when the core probes a
        persistent index and ``RangeProbeJoinOp._produce`` (transient
        grid) otherwise; the outer probe loop is the same in both.
        """
        dims = core.dimensions
        nd = len(dims)
        left_ctx = _BatchCtx(tuple(self.p.leaf_ops[0].names), 0, "_i", self)
        right_ctx = _BatchCtx(tuple(self.p.leaf_ops[1].names), 1, "_j", self)
        self.head_line("_np = 0")
        self.head_line("_ws = 0.0")
        self.head_line("_wc = 0")
        lsel = self._emit_side_selection(left_ctx, core.left_filters)
        probes_index = self.p.index_probe is not None
        if probes_index:
            self.head_line("_cand, _pos = __probe")
        else:
            cell, grid, gget = self._emit_transient_grid(core, lsel, left_ctx, right_ctx)

        # Probe loop: left rows in order.
        self.line(f"for _i in {lsel}:")
        self.indent += 1
        pgen = self.gen(left_ctx)
        lo_f, hi_f = [], []
        for _, low_expr, high_expr in dims:
            low = self.b.temp("_lo")
            high = self.b.temp("_hi")
            self.line(f"{low} = {pgen.value(low_expr)}")
            self.line(f"{high} = {pgen.value(high_expr)}")
            self.line(f"if {low} is None or {high} is None or {high} < {low}: continue")
            lof = self.b.temp("_lf")
            hif = self.b.temp("_hf")
            self.line(f"{lof} = float({low})")
            self.line(f"{hif} = float({high})")
            lo_f.append(lof)
            hi_f.append(hif)
        self.line("_np += 1")
        for lof, hif in zip(lo_f, hi_f):
            self.line(f"_ws += {hif} - {lof}")
        self.line(f"_wc += {nd}")

        if probes_index:
            # Candidates in the index's own order; it may cover only some
            # dimensions and over-approximate, so every bound is re-checked.
            bounds = ", ".join(f"({lof}, {hif})" for lof, hif in zip(lo_f, hi_f))
            self.line(f"for _rid in _cand(({bounds},)):")
            self.indent += 1
            self.line("_j = _pos[_rid]")
            for (column, _, _), lof, hif in zip(dims, lo_f, hi_f):
                var = self.b.temp("_x")
                self.line(f"{var} = {right_ctx.fragment(column)}")
                self.line(f"if {var} is None or {var} < {lof} or {var} > {hif}: continue")
        else:
            # Cells row-major within the probe box; a box wider than the
            # populated area scans the occupied cells instead.
            lo_c, hi_c = [], []
            for lof, hif in zip(lo_f, hi_f):
                lcv = self.b.temp("_lc")
                hcv = self.b.temp("_hc")
                self.line(f"{lcv} = int({lof} // {cell})")
                self.line(f"{hcv} = int({hif} // {cell})")
                lo_c.append(lcv)
                hi_c.append(hcv)
            box = self.b.temp("_bx")
            self.line(
                f"{box} = " + " * ".join(f"({h} - {l} + 1)" for l, h in zip(lo_c, hi_c))
            )
            cells = self.b.temp("_cl")
            gen_tuple = (
                "(" + ", ".join(f"_d{d}" for d in range(nd)) + ("," if nd == 1 else "") + ")"
            )
            gen_loops = " ".join(
                f"for _d{d} in range({lo_c[d]}, {hi_c[d]} + 1)" for d in range(nd)
            )
            in_range = " and ".join(
                f"{lo_c[d]} <= _ck[{d}] <= {hi_c[d]}" for d in range(nd)
            )
            self.line(f"if {box} <= len({grid}):")
            self.line(f"    {cells} = ({gen_tuple} {gen_loops})")
            self.line("else:")
            self.line(f"    {cells} = [_ck for _ck in {grid} if {in_range}]")
            self.line(f"for _ck in {cells}:")
            self.indent += 1
            probe_bucket = self.b.temp("_pb")
            self.line(f"{probe_bucket} = {gget}(_ck)")
            self.line(f"if {probe_bucket} is None: continue")
            self.line(f"for _e in {probe_bucket}:")
            self.indent += 1
            bounds_check = " and ".join(
                f"{lo_f[d]} <= _e[{d}] <= {hi_f[d]}" for d in range(nd)
            )
            self.line(f"if not ({bounds_check}): continue")
            self.line(f"_j = _e[{nd}]")
        pair = _PairCtx(left_ctx, right_ctx)
        self.emit_filters(pair, core.residual)
        return pair

    def _emit_transient_grid(
        self, core: _BandCore, lsel: str, left_ctx: _BatchCtx, right_ctx: _BatchCtx
    ) -> tuple[str, str, str]:
        """Build RangeProbeJoinOp's per-execution grid over the right side.

        Leaves the emitter inside ``if <both sides non-empty>:`` and returns
        the ``(cell size, grid, grid.get)`` variable names.
        """
        dims = core.dimensions
        rsel = self._emit_side_selection(right_ctx, core.right_filters)
        self.line(f"if {lsel} and {rsel}:")
        self.indent += 1
        base = self.indent

        # Cell size from the probe-width sample (zero-width probes excluded).
        widths = self.b.temp("_w")
        self.line(f"{widths} = []")
        self.line(f"for _i in {lsel}[:32]:")
        self.indent += 1
        wgen = self.gen(left_ctx)
        for _, low_expr, high_expr in dims:
            low = self.b.temp("_lo")
            high = self.b.temp("_hi")
            self.line(f"{low} = {wgen.value(low_expr)}")
            self.line(f"{high} = {wgen.value(high_expr)}")
            self.line(
                f"if {low} is not None and {high} is not None and {high} > {low}: "
                f"{widths}.append(float({high}) - float({low}))"
            )
        self.indent = base
        cell = self.b.temp("_cs")
        self.line(f"{cell} = (sum({widths}) / len({widths})) if {widths} else 1.0")

        # Insertion in right-row order.
        grid = self.b.temp("_grid")
        gget = self.b.temp("_gget")
        self.line(f"{grid} = {{}}")
        self.line(f"{gget} = {grid}.get")
        self.line(f"for _j in {rsel}:")
        self.indent += 1
        coord_vars = []
        for column, _, _ in dims:
            var = self.b.temp("_x")
            self.line(f"{var} = {right_ctx.fragment(column)}")
            self.line(f"if {var} is None: continue")
            self.line(f"{var} = float({var})")
            coord_vars.append(var)
        cell_key = (
            "("
            + ", ".join(f"int({v} // {cell})" for v in coord_vars)
            + ("," if len(dims) == 1 else "")
            + ")"
        )
        bucket = self.b.temp("_bkt")
        self.line(f"{bucket} = {gget}({cell_key})")
        self.line(f"if {bucket} is None:")
        self.line(f"    {bucket} = {grid}[{cell_key}] = []")
        self.line(f"{bucket}.append((" + ", ".join(coord_vars) + ", _j))")
        self.indent = base
        return cell, grid, gget

    # -- stages ------------------------------------------------------------------------------

    def emit_stage(self, stage: Any, ctx: Any) -> Any:
        if isinstance(stage, _FilterStage):
            self.emit_filters(ctx, stage.conjuncts)
            return ctx
        if isinstance(stage, _ProjectStage):
            gen = self.gen(ctx)
            frags: list[str] = []
            for _name, expr in stage.projections:
                src = gen.value(expr)
                if src.isidentifier():
                    frags.append(src)
                    continue
                var = self.b.temp("_p")
                self.line(f"{var} = {src}")
                frags.append(var)
            return _LocalCtx(tuple(n for n, _ in stage.projections), frags)
        return self._emit_aggregate(stage, ctx)

    def _emit_aggregate(self, stage: _AggStage, ctx: Any) -> _LocalCtx:
        grouped = bool(stage.group_columns)
        gen = self.gen(ctx)

        def identity(spec: AggregateSpec) -> str:
            if spec.argument is None or spec.func == "count":
                return "0"
            if spec.func in ("sum", "min", "max"):
                return "None"
            return "[]"

        # Bind aggregate input values first (they are pure, so evaluating
        # them before the group lookup is unobservable) — knowing which are
        # provably non-None picks cheaper identities below.  Structurally
        # identical arguments share one binding.
        values: list[tuple[str, bool]] = []
        memo: dict[str, tuple[str, bool]] = {}
        for spec in stage.aggregates:
            if spec.argument is None:
                values.append(("", True))
                continue
            arg_key = repr(spec.argument)
            if arg_key in memo:
                values.append(memo[arg_key])
                continue
            value_src = gen.value(spec.argument)
            if value_src.isidentifier():
                value = value_src
            else:
                value = self.b.temp("_v")
                self.line(f"{value} = {value_src}")
            memo[arg_key] = (value, value in self.non_null)
            values.append(memo[arg_key])

        # When every argument-taking aggregate reads the same value, gather
        # it into one per-group list (a single dict op + append per row —
        # the cheapest possible accumulation) and fold at C speed in the
        # epilogue.  This is the interpreted batch aggregate's own
        # gather-then-fold algorithm minus its per-spec overhead, so
        # equivalence is structural.
        arg_frags = {v for spec, (v, _) in zip(stage.aggregates, values) if spec.argument is not None}
        if len(arg_frags) == 1:
            return self._emit_gather_aggregate(stage, ctx, values, arg_frags.pop())

        def slot_identity(spec: AggregateSpec, *, known: bool) -> str:
            # A group's state only exists once a row reached it, so a sum
            # whose input is proven non-None can accumulate from 0 — the
            # all-NULL case (None folded to 0 on output) cannot occur.
            if spec.func == "sum" and known:
                return "0"
            return identity(spec)

        # One mutable state list per group, indexed by constant aggregate
        # position — the hot accumulation path touches a single dict entry
        # (or none at all when ungrouped) instead of parallel arrays.
        state = self.b.temp("_st")
        identities = "[" + ", ".join(
            slot_identity(s, known=known) for s, (_, known) in zip(stage.aggregates, values)
        ) + "]"
        if grouped:
            groups = self.b.temp("_g")
            keys = self.b.temp("_ky")
            self.head_line(f"{groups} = {{}}")
            self.head_line(f"{keys} = []")
            # Group key: single column raw, multi column tuple (batch-path form).
            if len(stage.group_columns) == 1:
                key_frag = ctx.fragment(stage.group_columns[0])
            else:
                key_frag = "(" + ", ".join(ctx.fragment(c) for c in stage.group_columns) + ")"
            if key_frag.isidentifier():
                key_var = key_frag
            else:
                key_var = self.b.temp("_kv")
                self.line(f"{key_var} = {key_frag}")
            # Group hit is the hot case: a plain subscript beats .get(),
            # and the KeyError branch runs once per distinct group.
            self.line("try:")
            self.indent += 1
            self.line(f"{state} = {groups}[{key_var}]")
            self.indent -= 1
            self.line("except KeyError:")
            self.indent += 1
            self.line(f"{state} = {groups}[{key_var}] = {identities}")
            self.line(f"{keys}.append({key_var})")
            self.indent -= 1
        else:
            keys = ""
            self.head_line(f"{state} = {identities}")

        for slot, (spec, (value, known)) in enumerate(zip(stage.aggregates, values)):
            if spec.argument is None:
                # The row path feeds the constant 1 to no-arg aggregates.
                self.line(f"{state}[{slot}] += 1")
                continue
            if spec.func == "count":
                if known:
                    self.line(f"{state}[{slot}] += 1")
                else:
                    self.line(f"if {value} is not None: {state}[{slot}] += 1")
            elif spec.func == "sum":
                if known:
                    self.line(f"{state}[{slot}] += {value}")
                    continue
                self.line(f"if {value} is not None:")
                self.indent += 1
                old = self.b.temp("_ac")
                self.line(f"{old} = {state}[{slot}]")
                self.line(f"{state}[{slot}] = {value} if {old} is None else {old} + {value}")
                self.indent -= 1
            elif spec.func in ("min", "max"):
                cmp_op = "<" if spec.func == "min" else ">"
                if not known:
                    self.line(f"if {value} is not None:")
                    self.indent += 1
                old = self.b.temp("_ac")
                self.line(f"{old} = {state}[{slot}]")
                self.line(f"if {old} is None or {value} {cmp_op} {old}: {state}[{slot}] = {value}")
                if not known:
                    self.indent -= 1
            else:
                self.line(f"{state}[{slot}].append({value})")

        # Close every loop below: groups stream out at function level, in
        # first-seen order (one identity row for a global aggregate).
        self.indent = 1
        frags: list[str] = []
        if grouped:
            key_out = self.b.temp("_kv")
            self.line(f"for {key_out} in {keys}:")
            self.indent = 2
            self.line(f"{state} = {groups}[{key_out}]")
            if len(stage.group_columns) == 1:
                frags.append(key_out)
            else:
                frags.extend(f"{key_out}[{d}]" for d in range(len(stage.group_columns)))
        for slot, spec in enumerate(stage.aggregates):
            if spec.argument is None and spec.func != "count":
                out = self.b.temp("_av")
                self.line(f"{out} = _fold({spec.func!r}, [1] * {state}[{slot}])")
            elif spec.func == "sum":
                out = self.b.temp("_av")
                self.line(f"{out} = {state}[{slot}]")
                self.line(f"if {out} is None: {out} = 0")
            elif spec.func in _INLINE_AGGS:
                out = f"{state}[{slot}]"
            else:
                out = self.b.temp("_av")
                self.line(f"{out} = _fold({spec.func!r}, {state}[{slot}])")
            frags.append(out)
        names = stage.group_names + tuple(s.name for s in stage.aggregates)
        return _LocalCtx(names, frags)

    def _emit_gather_aggregate(
        self, stage: _AggStage, ctx: Any, values: list[tuple[str, bool]], gathered: str
    ) -> _LocalCtx:
        """Single-gather-list aggregation: one dict op + append per row.

        Applicable when all argument-taking aggregates read the same value;
        the gathered list then serves every spec — ``len`` for row counts,
        C-speed ``sum``/``min``/``max`` for proven-non-None inputs, and the
        interpreted path's own ``_fold`` for everything else (which makes
        the fold semantics equal by construction).
        """
        grouped = bool(stage.group_columns)
        lst = self.b.temp("_ls")
        if grouped:
            groups = self.b.temp("_g")
            keys = self.b.temp("_ky")
            self.head_line(f"{groups} = {{}}")
            self.head_line(f"{keys} = []")
            # Group key: single column raw, multi column tuple (batch-path form).
            if len(stage.group_columns) == 1:
                key_frag = ctx.fragment(stage.group_columns[0])
            else:
                key_frag = "(" + ", ".join(ctx.fragment(c) for c in stage.group_columns) + ")"
            if key_frag.isidentifier():
                key_var = key_frag
            else:
                key_var = self.b.temp("_kv")
                self.line(f"{key_var} = {key_frag}")
            self.line("try:")
            self.indent += 1
            self.line(f"{groups}[{key_var}].append({gathered})")
            self.indent -= 1
            self.line("except KeyError:")
            self.indent += 1
            self.line(f"{groups}[{key_var}] = [{gathered}]")
            self.line(f"{keys}.append({key_var})")
            self.indent -= 1
        else:
            self.head_line(f"{lst} = []")
            self.line(f"{lst}.append({gathered})")

        # Epilogue: groups stream out in first-seen order (one row for a
        # global aggregate, whose list may be empty).
        self.indent = 1
        frags: list[str] = []
        if grouped:
            key_out = self.b.temp("_kv")
            self.line(f"for {key_out} in {keys}:")
            self.indent = 2
            self.line(f"{lst} = {groups}[{key_out}]")
            if len(stage.group_columns) == 1:
                frags.append(key_out)
            else:
                frags.extend(f"{key_out}[{d}]" for d in range(len(stage.group_columns)))
        for spec, (value, known) in zip(stage.aggregates, values):
            out = self.b.temp("_av")
            if spec.argument is None:
                # The row path feeds the constant 1 to no-arg aggregates.
                if spec.func == "count":
                    self.line(f"{out} = len({lst})")
                else:
                    self.line(f"{out} = _fold({spec.func!r}, [1] * len({lst}))")
            elif known and spec.func == "count":
                self.line(f"{out} = len({lst})")
            elif known and spec.func == "sum":
                self.line(f"{out} = sum({lst})")
            elif known and spec.func in ("min", "max"):
                if grouped:
                    self.line(f"{out} = {spec.func}({lst})")
                else:
                    # A global aggregate still emits its row when no input
                    # rows survived; min/max of nothing is NULL.
                    self.line(f"{out} = {spec.func}({lst}) if {lst} else None")
            else:
                self.line(f"{out} = _fold({spec.func!r}, {lst})")
            frags.append(out)
        names = stage.group_names + tuple(s.name for s in stage.aggregates)
        return _LocalCtx(names, frags)

    # -- output ------------------------------------------------------------------------------

    def emit_output(self, ctx: Any) -> None:
        out_names = self.p.out_names
        last_pos = {name: k for k, name in enumerate(out_names)}
        for k, name in enumerate(out_names):
            if last_pos[name] != k:
                continue  # duplicate column: a later position wins in the dict
            self.head_line(f"_o{k} = []")
            self.head_line(f"_o{k}a = _o{k}.append")
            self.line(f"_o{k}a({ctx.out_fragment(k)})")
        self.indent = 1
        if isinstance(self.p.core, _BandCore):
            self.line("if __hook is not None: __hook(_np, _ws, _wc)")
        items = ", ".join(
            f"{name!r}: _o{k}" for k, name in enumerate(out_names) if last_pos[name] == k
        )
        self.line(f"return _ColumnBatch(__names, {{{items}}})")

    # -- assembly ----------------------------------------------------------------------------

    def compile(self) -> KernelProgram:
        for i in range(len(self.p.leaf_ops)):
            self.head_line(f"_in{i} = __inputs[{i}]")
        ctx = self.emit_core()
        scan_ctx = ctx if isinstance(ctx, _ZipRowCtx) else None
        for stage in self.p.stages:
            ctx = self.emit_stage(stage, ctx)
        self.emit_output(ctx)
        if scan_ctx is not None:
            self._patch_scan_header(scan_ctx)
        source = (
            "def __kernel(__inputs, __hook=None, __probe=None):\n"
            + "\n".join(self.head + self.lines)
            + "\n"
        )
        env = dict(self.b.env)
        env["_ColumnBatch"] = ColumnBatch
        env["_fold"] = _fold_values
        env["_scan_cols"] = _scan_columns
        env["__names"] = tuple(self.p.out_names)
        exec(compile(source, "<repro-kernel>", "exec"), env)
        return KernelProgram(
            source=source,
            fn=env["__kernel"],
            names=tuple(self.p.out_names),
            n_inputs=len(self.p.leaf_ops),
            uses_hook=isinstance(self.p.core, _BandCore),
            fused_nodes=self.p.fused_nodes,
        )


# -- the lowering hook -----------------------------------------------------------------------


class KernelLowering:
    """The planner-side hook that serves fused kernels during lowering.

    Installed on :class:`PhysicalPlanner` (``kernel_lowering`` attribute)
    by the executor when compilation is enabled; :meth:`lower` is offered
    every Select/Project/Aggregate/Join the planner lowers to batch form
    and returns a :class:`KernelOp`, or ``None`` to continue with the
    interpreted operators.  Programs are cached in the executor-owned
    ``cache`` dict, keyed by the MQO fingerprint plus the structural
    signature, and dropped with the plan cache on catalog-shape changes.

    A plan outside the fusable grammar is a *decline*, counted by reason.
    Anything else that goes wrong in analysis or codegen also falls back
    to the interpreted operators, but is counted as an *error*: it is a
    compiler bug, not an unfusable plan.
    """

    def __init__(self, cache: dict[Any, KernelProgram] | None = None):
        self.cache: dict[Any, KernelProgram] = cache if cache is not None else {}
        self.compiled = 0
        self.hits = 0
        self.declined_by_reason = dict.fromkeys(KernelDecline.REASONS, 0)
        self.errors = 0

    @property
    def declined(self) -> int:
        return sum(self.declined_by_reason.values())

    def lower(self, plan: LogicalPlan, planner: Any) -> KernelOp | None:
        if not isinstance(plan, (Select, Project, Aggregate, Join)):
            return None
        try:
            pipeline = _analyze(plan, planner)
            key = self._cache_key(plan, pipeline)
            program = self.cache.get(key)
            if program is None:
                program = self.cache[key] = _Codegen(pipeline).compile()
                self.compiled += 1
            else:
                self.hits += 1
        except KernelDecline as decline:
            self.declined_by_reason[decline.reason] += 1
            return None
        except Exception:
            self.errors += 1
            return None
        schema = plan.output_schema(planner.catalog)
        return KernelOp(
            schema, program, tuple(pipeline.leaf_ops), pipeline.hook, pipeline.index_probe
        )

    def _cache_key(self, plan: LogicalPlan, pipeline: _Pipeline) -> tuple:
        fingerprint, aliases = fingerprint_plan(plan)
        renames = tuple(
            tuple(sorted(node.alias_renames.items()))
            for node in plan.walk()
            if isinstance(node, SharedScan)
        )
        return (fingerprint, aliases, renames, pipeline.signature)
