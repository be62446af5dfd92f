"""Main-memory relational engine substrate.

This package is the "special games engine with features similar to a main
memory database system" the paper builds SGL on: typed schemas, tables with
index maintenance and tick snapshots, a logical relational algebra,
row-at-a-time and columnar (batch) physical operators, spatial and
relational indexes, statistics, a cost-based and adaptive optimizer, and
the executor.  Multi-process execution lives in :mod:`repro.shard`.
"""

from repro.engine.aggregates import AGGREGATE_NAMES, Accumulator, combine_values, make_accumulator
from repro.engine.batch import ColumnBatch
from repro.engine.algebra import (
    Aggregate,
    AggregateSpec,
    Join,
    LogicalPlan,
    Project,
    Select,
    TableScan,
    Union,
    Values,
)
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.errors import (
    CatalogError,
    ConstraintViolation,
    EngineError,
    ExecutionError,
    ExpressionError,
    OptimizerError,
    PlanError,
    SchemaError,
    TypeMismatchError,
)
from repro.engine.executor import Executor, QueryResult
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
    and_all,
    col,
    lit,
    var,
)
from repro.engine.optimizer import AdaptiveQueryManager, ExecutionFeedback, IndexAdvisor, Planner
from repro.engine.schema import Column, Schema
from repro.engine.table import Table
from repro.engine.types import DataType, Ref

__all__ = [
    "AGGREGATE_NAMES",
    "Accumulator",
    "combine_values",
    "make_accumulator",
    "ColumnBatch",
    "Aggregate",
    "AggregateSpec",
    "Join",
    "LogicalPlan",
    "Project",
    "Select",
    "TableScan",
    "Union",
    "Values",
    "Catalog",
    "EngineConfig",
    "CatalogError",
    "ConstraintViolation",
    "EngineError",
    "ExecutionError",
    "ExpressionError",
    "OptimizerError",
    "PlanError",
    "SchemaError",
    "TypeMismatchError",
    "Executor",
    "QueryResult",
    "BinaryOp",
    "ColumnRef",
    "Conditional",
    "Expression",
    "FunctionCall",
    "Literal",
    "SetLiteral",
    "UnaryOp",
    "Variable",
    "and_all",
    "col",
    "lit",
    "var",
    "AdaptiveQueryManager",
    "ExecutionFeedback",
    "IndexAdvisor",
    "Planner",
    "Column",
    "Schema",
    "Table",
    "DataType",
    "Ref",
]
