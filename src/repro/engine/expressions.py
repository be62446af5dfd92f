"""Scalar expression trees evaluated over rows.

The SGL compiler lowers script expressions into these nodes; relational
algebra operators (selection predicates, projection expressions, join
conditions, aggregate arguments) all carry :class:`Expression` trees.

Expressions are immutable.  Evaluation takes a *row* (a mapping from column
name to value) and an optional *context* of free variables (used by the SGL
runtime for script-local ``let`` bindings).  Each node also reports the
columns it references so the optimizer can push predicates and prune
projections, and supports structural substitution for algebraic rewrites.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.engine.errors import ExpressionError
from repro.engine.types import DataType, type_of_value

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "Variable",
    "UnaryOp",
    "BinaryOp",
    "FunctionCall",
    "Conditional",
    "SetLiteral",
    "col",
    "lit",
    "var",
    "and_all",
    "resolve_batch_column",
    "batch_supported",
]


class Expression:
    """Abstract base class for scalar expressions."""

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        """Evaluate this expression against *row* and optional *context*."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Return the set of column names this expression references."""
        return set()

    def variables(self) -> set[str]:
        """Return the set of free (non-column) variable names referenced."""
        return set()

    def children(self) -> tuple["Expression", ...]:
        return ()

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Return a copy with column references replaced per *mapping*."""
        return self

    def rename_columns(self, mapping: Mapping[str, str]) -> "Expression":
        """Return a copy with column names renamed per *mapping*."""
        return self.substitute({old: ColumnRef(new) for old, new in mapping.items()})

    def result_type(self) -> DataType:
        """A best-effort static type for this expression."""
        return DataType.ANY

    # -- convenience builders (used heavily in tests and the compiler) ------------

    def __add__(self, other: Any) -> "BinaryOp":
        return BinaryOp("+", self, _wrap(other))

    def __sub__(self, other: Any) -> "BinaryOp":
        return BinaryOp("-", self, _wrap(other))

    def __mul__(self, other: Any) -> "BinaryOp":
        return BinaryOp("*", self, _wrap(other))

    def __truediv__(self, other: Any) -> "BinaryOp":
        return BinaryOp("/", self, _wrap(other))

    def eq(self, other: Any) -> "BinaryOp":
        return BinaryOp("==", self, _wrap(other))

    def ne(self, other: Any) -> "BinaryOp":
        return BinaryOp("!=", self, _wrap(other))

    def lt(self, other: Any) -> "BinaryOp":
        return BinaryOp("<", self, _wrap(other))

    def le(self, other: Any) -> "BinaryOp":
        return BinaryOp("<=", self, _wrap(other))

    def gt(self, other: Any) -> "BinaryOp":
        return BinaryOp(">", self, _wrap(other))

    def ge(self, other: Any) -> "BinaryOp":
        return BinaryOp(">=", self, _wrap(other))

    def and_(self, other: Any) -> "BinaryOp":
        return BinaryOp("&&", self, _wrap(other))

    def or_(self, other: Any) -> "BinaryOp":
        return BinaryOp("||", self, _wrap(other))


def _wrap(value: Any) -> Expression:
    """Lift plain Python values into :class:`Literal` nodes."""
    if isinstance(value, Expression):
        return value
    return Literal(value)


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        return self.value

    def result_type(self) -> DataType:
        return type_of_value(self.value)

    def __repr__(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        try:
            return hash(("lit", self.value))
        except TypeError:
            return hash(("lit", repr(self.value)))


class ColumnRef(Expression):
    """A reference to a column of the current row."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        if self.name in row:
            return row[self.name]
        # Fall back to unqualified / qualified resolution against the row keys.
        suffix = "." + self.name.split(".")[-1]
        matches = [k for k in row if k == self.name or k.endswith(suffix) or k.split(".")[-1] == self.name]
        if len(matches) == 1:
            return row[matches[0]]
        if context is not None and self.name in context:
            return context[self.name]
        raise ExpressionError(f"unknown column {self.name!r} in row {list(row)[:8]}")

    def columns(self) -> set[str]:
        return {self.name}

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return mapping.get(self.name, self)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("col", self.name))


class Variable(Expression):
    """A free variable resolved from the evaluation context, not the row.

    The SGL runtime uses variables for script-local bindings (e.g. the loop
    variable of an accum-loop before it is fused into a join) and for the
    implicit ``self`` parameters of a script.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        if context is not None and self.name in context:
            return context[self.name]
        if self.name in row:
            return row[self.name]
        raise ExpressionError(f"unbound variable {self.name!r}")

    def variables(self) -> set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return f"${self.name}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("var", self.name))


def _null_safe(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    """Wrap a binary function so that a ``None`` operand yields ``None``."""

    def wrapper(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return fn(a, b)

    return wrapper


def _safe_div(a: Any, b: Any) -> Any:
    if b == 0:
        return None
    return a / b


_BINARY_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(_safe_div),
    "%": _null_safe(operator.mod),
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": _null_safe(operator.lt),
    "<=": _null_safe(operator.le),
    ">": _null_safe(operator.gt),
    ">=": _null_safe(operator.ge),
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
    "in": lambda a, b: a in b if b is not None else False,
    "min": _null_safe(min),
    "max": _null_safe(max),
}

#: Operators whose result is a boolean; used for static typing of predicates.
_BOOLEAN_OPS = {"==", "!=", "<", "<=", ">", ">=", "&&", "||", "in"}


class BinaryOp(Expression):
    """A binary operation (arithmetic, comparison or boolean connective)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _BINARY_OPS:
            raise ExpressionError(f"unknown binary operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        # Short-circuit the boolean connectives so that predicates over
        # nullable columns behave like scripting languages expect.
        if self.op == "&&":
            return bool(self.left.evaluate(row, context)) and bool(self.right.evaluate(row, context))
        if self.op == "||":
            return bool(self.left.evaluate(row, context)) or bool(self.right.evaluate(row, context))
        lhs = self.left.evaluate(row, context)
        rhs = self.right.evaluate(row, context)
        try:
            return _BINARY_OPS[self.op](lhs, rhs)
        except TypeError as exc:
            raise ExpressionError(f"cannot apply {self.op!r} to {lhs!r} and {rhs!r}") from exc

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def variables(self) -> set[str]:
        return self.left.variables() | self.right.variables()

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return BinaryOp(self.op, self.left.substitute(mapping), self.right.substitute(mapping))

    def result_type(self) -> DataType:
        if self.op in _BOOLEAN_OPS:
            return DataType.BOOL
        return DataType.NUMBER

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryOp)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("bin", self.op, self.left, self.right))

    # -- conjunction utilities (used by the optimizer) -----------------------------

    def conjuncts(self) -> list[Expression]:
        """Split an AND-tree into its conjuncts; other nodes return themselves."""
        if self.op != "&&":
            return [self]
        out: list[Expression] = []
        for side in (self.left, self.right):
            if isinstance(side, BinaryOp):
                out.extend(side.conjuncts())
            else:
                out.append(side)
        return out


_UNARY_OPS: dict[str, Callable[[Any], Any]] = {
    "-": lambda a: None if a is None else -a,
    "!": lambda a: not bool(a),
    "abs": lambda a: None if a is None else abs(a),
}


class UnaryOp(Expression):
    """A unary operation: negation, boolean not, absolute value."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        if op not in _UNARY_OPS:
            raise ExpressionError(f"unknown unary operator {op!r}")
        self.op = op
        self.operand = operand

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        return _UNARY_OPS[self.op](self.operand.evaluate(row, context))

    def columns(self) -> set[str]:
        return self.operand.columns()

    def variables(self) -> set[str]:
        return self.operand.variables()

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return UnaryOp(self.op, self.operand.substitute(mapping))

    def result_type(self) -> DataType:
        return DataType.BOOL if self.op == "!" else DataType.NUMBER

    def __repr__(self) -> str:
        return f"{self.op}({self.operand!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnaryOp) and other.op == self.op and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("un", self.op, self.operand))


def _distance(x1: Any, y1: Any, x2: Any, y2: Any) -> float:
    return math.hypot(x2 - x1, y2 - y1)


#: Functions evaluated even when an argument is ``None`` (everything else
#: null-propagates).
_NULL_TOLERANT_FUNCTIONS = ("size", "contains")

_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "round": round,
    "min": min,
    "max": max,
    "abs": abs,
    "pow": pow,
    "distance": _distance,
    "size": lambda s: 0 if s is None else len(s),
    "contains": lambda s, v: v in s if s is not None else False,
    "clamp": lambda v, lo, hi: max(lo, min(hi, v)),
    "sign": lambda v: (v > 0) - (v < 0),
    "atan2": math.atan2,
    "cos": math.cos,
    "sin": math.sin,
}


class FunctionCall(Expression):
    """A call to one of the engine's built-in scalar functions."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]):
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")
        self.name = name
        self.args = tuple(args)

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        values = [a.evaluate(row, context) for a in self.args]
        if any(v is None for v in values) and self.name not in _NULL_TOLERANT_FUNCTIONS:
            return None
        try:
            return _FUNCTIONS[self.name](*values)
        except (TypeError, ValueError) as exc:
            raise ExpressionError(f"error calling {self.name}({values})") from exc

    def columns(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def variables(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.variables()
        return out

    def children(self) -> tuple[Expression, ...]:
        return self.args

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return FunctionCall(self.name, [a.substitute(mapping) for a in self.args])

    def result_type(self) -> DataType:
        return DataType.BOOL if self.name == "contains" else DataType.NUMBER

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FunctionCall) and other.name == self.name and other.args == self.args

    def __hash__(self) -> int:
        return hash(("fn", self.name, self.args))

    @staticmethod
    def known_functions() -> tuple[str, ...]:
        return tuple(sorted(_FUNCTIONS))


class Conditional(Expression):
    """An if/then/else expression (ternary)."""

    __slots__ = ("condition", "if_true", "if_false")

    def __init__(self, condition: Expression, if_true: Expression, if_false: Expression):
        self.condition = condition
        self.if_true = if_true
        self.if_false = if_false

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        if self.condition.evaluate(row, context):
            return self.if_true.evaluate(row, context)
        return self.if_false.evaluate(row, context)

    def columns(self) -> set[str]:
        return self.condition.columns() | self.if_true.columns() | self.if_false.columns()

    def variables(self) -> set[str]:
        return self.condition.variables() | self.if_true.variables() | self.if_false.variables()

    def children(self) -> tuple[Expression, ...]:
        return (self.condition, self.if_true, self.if_false)

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return Conditional(
            self.condition.substitute(mapping),
            self.if_true.substitute(mapping),
            self.if_false.substitute(mapping),
        )

    def __repr__(self) -> str:
        return f"if({self.condition!r}, {self.if_true!r}, {self.if_false!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Conditional)
            and other.condition == self.condition
            and other.if_true == self.if_true
            and other.if_false == self.if_false
        )

    def __hash__(self) -> int:
        return hash(("cond", self.condition, self.if_true, self.if_false))


class SetLiteral(Expression):
    """A set constructor over sub-expressions, e.g. ``{a, b, 3}``."""

    __slots__ = ("elements",)

    def __init__(self, elements: Sequence[Expression]):
        self.elements = tuple(elements)

    def evaluate(self, row: Mapping[str, Any], context: Mapping[str, Any] | None = None) -> Any:
        return frozenset(e.evaluate(row, context) for e in self.elements)

    def columns(self) -> set[str]:
        out: set[str] = set()
        for e in self.elements:
            out |= e.columns()
        return out

    def children(self) -> tuple[Expression, ...]:
        return self.elements

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return SetLiteral([e.substitute(mapping) for e in self.elements])

    def result_type(self) -> DataType:
        return DataType.SET

    def __repr__(self) -> str:
        return "{" + ", ".join(map(repr, self.elements)) + "}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetLiteral) and other.elements == self.elements

    def __hash__(self) -> int:
        return hash(("set", self.elements))


# -- module-level helpers ------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def var(name: str) -> Variable:
    """Shorthand constructor for a free variable."""
    return Variable(name)


def and_all(predicates: Iterable[Expression]) -> Expression:
    """Combine predicates with AND; an empty iterable yields ``TRUE``."""
    preds = list(predicates)
    if not preds:
        return Literal(True)
    out = preds[0]
    for p in preds[1:]:
        out = BinaryOp("&&", out, p)
    return out


# -- batch (columnar) name resolution ------------------------------------------------
#
# Compiled kernels (:mod:`repro.engine.compile.kernels`) read expressions
# over *columns* (parallel value lists indexed by a physical row index)
# instead of row dicts.  Name resolution happens at plan time against the
# batch's column names (mirroring :meth:`ColumnRef.evaluate`'s
# qualified/unqualified fallback), so the kernel compiler can prove — via
# :func:`batch_supported` — that generated code cannot fail to resolve a
# column at runtime, and decline otherwise.


def resolve_batch_column(name: str, names: Sequence[str]) -> str | None:
    """Resolve *name* against batch column *names*; ``None`` if it fails.

    Implements exactly the fallback of :meth:`ColumnRef.evaluate`: an exact
    match wins, otherwise a unique qualified/unqualified suffix match.
    """
    if name in names:
        return name
    suffix = "." + name.split(".")[-1]
    matches = [k for k in names if k.endswith(suffix) or k.split(".")[-1] == name]
    if len(matches) == 1:
        return matches[0]
    return None


def batch_supported(
    expr: Expression,
    names: Sequence[str],
    context: Mapping[str, Any] | None = None,
) -> bool:
    """Whether every column of *expr* resolves over a batch with the given
    column *names* and optional *context*.

    The kernel compiler calls this before committing to the batch path so
    that every plan-time decision is safe: an unresolvable or ambiguous
    column simply keeps the query on the row-at-a-time path (which will
    raise the same error the user would have seen anyway, or resolve it
    via the context).
    """
    if isinstance(expr, Literal):
        return True
    if isinstance(expr, ColumnRef):
        if resolve_batch_column(expr.name, names) is not None:
            return True
        return context is not None and expr.name in context
    if isinstance(expr, Variable):
        # Variable.evaluate checks the context, then the row by exact key.
        if context is not None and expr.name in context:
            return True
        return expr.name in names
    if isinstance(expr, (UnaryOp, BinaryOp, FunctionCall, Conditional, SetLiteral)):
        return all(batch_supported(child, names, context) for child in expr.children())
    return False
