"""Unit tests for scalar expressions."""

from __future__ import annotations

import pytest

from repro.engine import (
    BinaryOp,
    Conditional,
    FunctionCall,
    SetLiteral,
    UnaryOp,
    and_all,
    col,
    lit,
    var,
)
from repro.engine.errors import ExpressionError
from repro.engine.types import DataType

ROW = {"x": 4.0, "y": 3.0, "name": "bob", "flag": True, "missing": None}


class TestEvaluation:
    def test_arithmetic(self):
        assert (col("x") + col("y")).evaluate(ROW) == 7.0
        assert (col("x") - lit(1)).evaluate(ROW) == 3.0
        assert (col("x") * lit(2)).evaluate(ROW) == 8.0
        assert (col("x") / lit(2)).evaluate(ROW) == 2.0

    def test_division_by_zero_is_null(self):
        assert (col("x") / lit(0)).evaluate(ROW) is None

    def test_comparisons(self):
        assert col("x").gt(col("y")).evaluate(ROW) is True
        assert col("x").le(lit(4)).evaluate(ROW) is True
        assert col("x").eq(lit(5)).evaluate(ROW) is False
        assert col("name").ne(lit("alice")).evaluate(ROW) is True

    def test_null_propagation_in_arithmetic(self):
        assert (col("missing") + lit(1)).evaluate(ROW) is None
        assert UnaryOp("-", col("missing")).evaluate(ROW) is None

    def test_boolean_connectives_short_circuit(self):
        expr = BinaryOp("&&", col("flag"), col("x").gt(lit(0)))
        assert expr.evaluate(ROW) is True
        expr = BinaryOp("||", col("flag"), col("does_not_exist").gt(lit(0)))
        assert expr.evaluate(ROW) is True  # right side never evaluated

    def test_unary_not(self):
        assert UnaryOp("!", col("flag")).evaluate(ROW) is False

    def test_conditional(self):
        expr = Conditional(col("x").gt(lit(0)), lit("pos"), lit("neg"))
        assert expr.evaluate(ROW) == "pos"

    def test_functions(self):
        assert FunctionCall("sqrt", [lit(16)]).evaluate({}) == 4
        assert FunctionCall("min", [lit(3), lit(5)]).evaluate({}) == 3
        assert FunctionCall("distance", [lit(0), lit(0), lit(3), lit(4)]).evaluate({}) == 5
        assert FunctionCall("clamp", [lit(10), lit(0), lit(5)]).evaluate({}) == 5
        assert FunctionCall("size", [lit(frozenset({1, 2}))]).evaluate({}) == 2
        assert FunctionCall("contains", [lit(frozenset({1})), lit(1)]).evaluate({}) is True

    def test_function_null_argument_returns_null(self):
        assert FunctionCall("sqrt", [col("missing")]).evaluate(ROW) is None

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            FunctionCall("frobnicate", [])

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            BinaryOp("**", lit(1), lit(2))
        with pytest.raises(ExpressionError):
            UnaryOp("~", lit(1))

    def test_set_literal(self):
        assert SetLiteral([lit(1), col("x")]).evaluate(ROW) == frozenset({1, 4.0})

    def test_variable_resolution(self):
        assert var("v").evaluate({}, {"v": 9}) == 9
        assert var("x").evaluate(ROW) == 4.0
        with pytest.raises(ExpressionError):
            var("unbound").evaluate({})

    def test_unknown_column_raises(self):
        with pytest.raises(ExpressionError):
            col("nope").evaluate(ROW)

    def test_qualified_column_fallback(self):
        assert col("x").evaluate({"u.x": 7}) == 7
        assert col("u.x").evaluate({"u.x": 7}) == 7


class TestStructure:
    def test_columns_and_variables(self):
        expr = (col("a") + col("b")).gt(var("t"))
        assert expr.columns() == {"a", "b"}
        assert expr.variables() == {"t"}

    def test_substitute(self):
        expr = col("a").gt(lit(3))
        replaced = expr.substitute({"a": col("u.a")})
        assert replaced.columns() == {"u.a"}
        assert expr.columns() == {"a"}  # original untouched

    def test_rename_columns(self):
        expr = col("a").eq(col("b"))
        renamed = expr.rename_columns({"a": "x"})
        assert renamed.columns() == {"x", "b"}

    def test_conjuncts_flattening(self):
        expr = BinaryOp("&&", BinaryOp("&&", lit(True), col("a").gt(lit(0))), col("b").lt(lit(1)))
        conjuncts = expr.conjuncts()
        assert len(conjuncts) == 3

    def test_and_all(self):
        assert and_all([]).evaluate({}) is True
        combined = and_all([col("x").gt(lit(0)), col("y").gt(lit(0))])
        assert combined.evaluate(ROW) is True

    def test_result_types(self):
        assert col("x").gt(lit(1)).result_type() is DataType.BOOL
        assert (col("x") + lit(1)).result_type() is DataType.NUMBER
        assert SetLiteral([]).result_type() is DataType.SET
        assert lit("s").result_type() is DataType.STRING

    def test_equality_and_hash(self):
        assert col("x").eq(lit(1)) == col("x").eq(lit(1))
        assert hash(col("x")) == hash(col("x"))
        assert col("x") != col("y")
        assert lit(1) != lit(2)

    def test_repr_is_readable(self):
        assert "x" in repr(col("x").gt(lit(3)))
