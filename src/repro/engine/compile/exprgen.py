"""Expression → Python source generation for compiled kernels.

Turns an :class:`~repro.engine.expressions.Expression` tree into a Python
source fragment that evaluates it for "the current row" of a fused kernel
loop.  Column access is delegated to a *resolver* callback supplied by the
kernel compiler (it knows whether the current row is a batch index, a join
pair, or a set of aggregate-output locals).

The generated code reproduces :meth:`Expression.evaluate` semantics
exactly:

* arithmetic and ordered comparisons are null-safe (any ``None`` operand
  yields ``None``), division additionally yields ``None`` on a zero
  divisor;
* ``&&`` / ``||`` short-circuit on truthiness and return actual bools;
* function calls null-propagate unless the function is null-tolerant;
* conditionals branch on truthiness, set literals build ``frozenset``.

Operands that are needed twice (the ``None`` test and the operation) are
bound to walrus temporaries so every sub-expression is evaluated exactly
once, like the interpreted tree.  Non-trivial constants (function objects,
frozensets, non-finite floats) are captured by name in the kernel's
``exec`` environment rather than inlined.

A second entry point, :meth:`ExprGen.boolean`, emits a fragment whose
*truthiness* equals ``bool(value)`` — used for filter guards, where
comparisons can skip materializing the tri-state ``None``/``True``/
``False`` result entirely.

:func:`row_function` wraps both modes into one compiled function of a
value tuple, which is how the delta operators evaluate expressions.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

from repro.engine.expressions import (
    _FUNCTIONS,
    _NULL_TOLERANT_FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Conditional,
    Expression,
    FunctionCall,
    Literal,
    SetLiteral,
    UnaryOp,
    Variable,
    resolve_batch_column,
)

__all__ = ["ExprGen", "KernelDecline", "SourceBuilder", "row_function"]


class KernelDecline(Exception):
    """Raised when a plan fragment cannot be compiled into a kernel.

    Callers catch this and fall back to the row operators, so raising it
    is always safe — never an error surfaced to users.
    ``reason`` is one of :attr:`REASONS` and is what
    ``Executor.kernel_report()["declined_by_reason"]`` counts by.
    """

    #: ``join-shape``: a join side no batch operator serves (e.g. a
    #: Fixpoint, or a join over one);
    #: ``expression``: something is not provably batch-compilable, or
    #: output names collide; ``bare-leaf``: the Select/Project/Aggregate
    #: stack sits on a node with no batch operator (e.g. a Union).
    REASONS = ("join-shape", "expression", "bare-leaf")

    def __init__(self, detail: str = "", reason: str = "expression"):
        super().__init__(detail)
        self.reason = reason


class SourceBuilder:
    """Allocates unique temporaries and captured-constant names for one kernel."""

    def __init__(self) -> None:
        self.env: dict[str, Any] = {}
        self._counter = 0

    def temp(self, prefix: str = "_t") -> str:
        self._counter += 1
        return f"{prefix}{self._counter}"

    def const(self, value: Any, prefix: str = "_k") -> str:
        """Capture *value* in the kernel environment; returns its name."""
        name = self.temp(prefix)
        self.env[name] = value
        return name


#: Null-safe binary operators rendered as infix Python (both operands
#: needed twice: once for the None test, once for the operation).
_NULL_SAFE_INFIX = {"+", "-", "*", "%", "<", "<=", ">", ">=", "/"}


class ExprGen:
    """Generates Python source for expressions over a resolver-defined row."""

    def __init__(self, resolver: Callable[[Any], str], builder: SourceBuilder):
        #: Maps a ColumnRef/Variable node to a Python fragment reading its
        #: value for the current row (Variables bind by exact key only,
        #: matching ``batch_supported``); raises :class:`KernelDecline` when
        #: the name does not resolve.
        self.resolver = resolver
        self.builder = builder
        #: Row variables the most recent :meth:`boolean` guard proves
        #: non-``None`` on its true branch.
        self.proved_non_null: list[str] = []

    # -- value mode ------------------------------------------------------------------------

    def value(self, expr: Expression) -> str:
        """Source whose value equals ``expr.evaluate(row)``."""
        if isinstance(expr, Literal):
            return self._literal(expr.value)
        if isinstance(expr, (ColumnRef, Variable)):
            return self.resolver(expr)
        if isinstance(expr, BinaryOp):
            return self._binary_value(expr)
        if isinstance(expr, UnaryOp):
            return self._unary_value(expr)
        if isinstance(expr, FunctionCall):
            return self._call_value(expr)
        if isinstance(expr, Conditional):
            true = self.value(expr.if_true)
            false = self.value(expr.if_false)
            cond = self.value(expr.condition)
            return f"({true} if {cond} else {false})"
        if isinstance(expr, SetLiteral):
            elements = ", ".join(self.value(e) for e in expr.elements)
            trailing = "," if len(expr.elements) == 1 else ""
            return f"frozenset(({elements}{trailing}))"
        raise KernelDecline(f"cannot compile {type(expr).__name__}")

    # -- boolean (guard) mode --------------------------------------------------------------

    def boolean(self, expr: Expression) -> str:
        """Source whose truthiness equals ``bool(expr.evaluate(row))``.

        ``None`` results are falsy either way, so ordered comparisons can
        collapse the null checks and the comparison into one ``and`` chain.

        Also populates :attr:`proved_non_null` with row-variable names
        this guard proves non-``None`` when it passes — only facts from
        unconditionally-evaluated positions (and-chains of ordered
        comparisons; never from under ``||`` or ``!``).
        """
        self.proved_non_null: list[str] = []
        return self._boolean(expr, collect=True)

    def _boolean(self, expr: Expression, *, collect: bool) -> str:
        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "&&":
                return (
                    f"({self._boolean(expr.left, collect=collect)}"
                    f" and {self._boolean(expr.right, collect=collect)})"
                )
            if op == "||":
                return (
                    f"({self._boolean(expr.left, collect=False)}"
                    f" or {self._boolean(expr.right, collect=False)})"
                )
            if op in ("<", "<=", ">", ">="):
                lf, lr, lnn = self._operand(expr.left)
                rf, rr, rnn = self._operand(expr.right)
                if lnn is None or rnn is None:
                    return "False"  # null-safe comparison against NULL
                parts = []
                if not lnn:
                    parts.append(f"{lf} is not None")
                    if collect and lr.isidentifier():
                        self.proved_non_null.append(lr)
                if not rnn:
                    parts.append(f"{rf} is not None")
                    if collect and rr.isidentifier():
                        self.proved_non_null.append(rr)
                parts.append(f"{lr} {op} {rr}")
                return "(" + " and ".join(parts) + ")"
            if op in ("==", "!="):
                return f"({self.value(expr.left)} {op} {self.value(expr.right)})"
        if isinstance(expr, UnaryOp) and expr.op == "!":
            return f"(not {self._boolean(expr.operand, collect=False)})"
        if isinstance(expr, Literal):
            return "True" if expr.value else "False" if expr.value is not None else "False"
        return self.value(expr)

    # -- operand helper --------------------------------------------------------------------

    def _operand(self, expr: Expression) -> tuple[str, str, bool | None]:
        """Emit an operand needed both for a null test and the operation.

        Returns ``(first_use, reuse, non_none)``: *first_use* is the
        fragment to evaluate first (a walrus binding when the value could
        be ``None``), *reuse* names the bound value for later mentions.
        *non_none* is ``True`` for values that provably cannot be ``None``
        (non-null literals, set literals) — their guard can be skipped —
        and ``None`` for the literal ``NULL`` (null-safe operations on it
        are constant).  All expressions are pure, so skipping or
        reordering the guard evaluation is unobservable.
        """
        if isinstance(expr, Literal):
            if expr.value is None:
                return "None", "None", None
            frag = self._literal(expr.value)
            return frag, frag, True
        if isinstance(expr, SetLiteral):
            frag = self.value(expr)
            return frag, frag, True
        src = self.value(expr)
        if src.isidentifier():
            # Already a bound local (e.g. a zip-loop row variable):
            # mentioning it twice is free, no walrus needed.
            return src, src, False
        temp = self.builder.temp()
        return f"({temp} := {src})", temp, False

    # -- node emitters ---------------------------------------------------------------------

    def _literal(self, value: Any) -> str:
        if value is None:
            return "None"
        if value is True:
            return "True"
        if value is False:
            return "False"
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, float):
            if math.isfinite(value):
                return repr(value)
            return self.builder.const(value)
        if isinstance(value, str):
            return repr(value)
        return self.builder.const(value)

    def _binary_value(self, expr: BinaryOp) -> str:
        op = expr.op
        if op == "&&":
            return f"(bool({self.value(expr.left)}) and bool({self.value(expr.right)}))"
        if op == "||":
            return f"(bool({self.value(expr.left)}) or bool({self.value(expr.right)}))"
        if op in ("==", "!="):
            return f"({self.value(expr.left)} {op} {self.value(expr.right)})"
        if op == "in":
            rf, rr, rnn = self._operand(expr.right)
            if rnn is None:
                return "False"  # membership in NULL is null-safe False
            left = self.value(expr.left)
            if rnn:
                return f"({left} in {rr})"
            # The conditional's test runs first, binding the container;
            # sub-expressions are pure, so binding order is unobservable.
            return f"({left} in {rr} if {rf} is not None else False)"
        if op in _NULL_SAFE_INFIX or op in ("min", "max"):
            lf, lr, lnn = self._operand(expr.left)
            rf, rr, rnn = self._operand(expr.right)
            if lnn is None or rnn is None:
                return "None"  # null-safe operation on the literal NULL
            if op in ("min", "max"):
                body = f"{op}({lr}, {rr})"
            else:
                body = f"{lr} {op} {rr}"
            guards = []
            if not lnn:
                guards.append(f"{lf} is None")
            if not rnn:
                guards.append(f"{rf} is None")
            if op == "/":
                if rnn:
                    if expr.right.value == 0:  # type: ignore[union-attr]
                        return "None"
                else:
                    guards.append(f"{rr} == 0")
            if not guards:
                return f"({body})"
            return f"(None if {' or '.join(guards)} else {body})"
        raise KernelDecline(f"unsupported binary operator {op!r}")

    def _unary_value(self, expr: UnaryOp) -> str:
        if expr.op == "!":
            return f"(not bool({self.value(expr.operand)}))"
        first, reuse, non_none = self._operand(expr.operand)
        if non_none is None:
            return "None"
        body = f"-{reuse}" if expr.op == "-" else f"abs({reuse})"
        if non_none:
            return f"({body})"
        return f"(None if {first} is None else {body})"

    def _call_value(self, expr: FunctionCall) -> str:
        fn_name = self.builder.const(_FUNCTIONS[expr.name], "_fn")
        if expr.name in _NULL_TOLERANT_FUNCTIONS:
            args = ", ".join(self.value(a) for a in expr.args)
            return f"{fn_name}({args})"
        guards, uses = [], []
        for arg in expr.args:
            first, reuse, non_none = self._operand(arg)
            if non_none is None:
                return "None"  # a NULL argument null-propagates
            if not non_none:
                guards.append(f"{first} is None")
            uses.append(reuse)
        call = f"{fn_name}({', '.join(uses)})"
        if not guards:
            return call
        return f"(None if {' or '.join(guards)} else {call})"


def row_function(
    names: Sequence[str], exprs: Sequence[Expression], *, guard: bool = False
) -> Callable[[tuple], Any]:
    """Compile *exprs* into one function of a value tuple laid out as *names*.

    The function returns the tuple of the expressions' values or, with
    ``guard=True`` and a single predicate, a value whose truthiness equals
    the predicate's.  Expressions outside the generator's grammar, and rows
    the generated code cannot evaluate (mismatched operand types), go
    through :meth:`Expression.evaluate` on a row dict, so values and errors
    always match the interpreted path.
    """
    names = tuple(names)
    # Last position wins on duplicate names, as in ``dict(zip(names, values))``.
    positions = {name: k for k, name in enumerate(names)}

    def interpreted(values: tuple) -> Any:
        row = dict(zip(names, values))
        if guard:
            return exprs[0].evaluate(row)
        return tuple(expr.evaluate(row) for expr in exprs)

    def resolver(node: Any) -> str:
        name = (
            node.name
            if isinstance(node, Variable)
            else resolve_batch_column(node.name, names)
        )
        if name not in positions:
            raise KernelDecline(node.name)
        return f"_r[{positions[name]}]"

    builder = SourceBuilder()
    gen = ExprGen(resolver, builder)
    try:
        if guard:
            body = gen.boolean(exprs[0])
        else:
            body = "(" + "".join(f"{gen.value(expr)}, " for expr in exprs) + ")"
    except KernelDecline:
        return interpreted
    source = (
        "def _row_fn(_r):\n"
        "    try:\n"
        f"        return {body}\n"
        "    except (TypeError, ValueError, ArithmeticError):\n"
        "        return _interpreted(_r)\n"
    )
    env = dict(builder.env, _interpreted=interpreted)
    exec(compile(source, "<repro-row-function>", "exec"), env)
    return env["_row_fn"]
