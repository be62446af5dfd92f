"""Exception hierarchy for the main-memory relational engine.

Every error raised by :mod:`repro.engine` derives from :class:`EngineError`,
so callers embedding the engine (the SGL runtime, the benchmark harness)
can catch one base class.  The hierarchy mirrors the stages of query
processing: schema definition, catalog management, expression evaluation,
planning, and execution.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by the relational engine."""


class SchemaError(EngineError):
    """A schema is malformed, or an operation refers to unknown columns."""


class TypeMismatchError(SchemaError):
    """A value does not conform to the declared column type."""


class CatalogError(EngineError):
    """A table or index name is unknown or already registered."""


class ExpressionError(EngineError):
    """A scalar expression is malformed or cannot be evaluated."""


class PlanError(EngineError):
    """A logical or physical plan is structurally invalid."""


class ExecutionError(EngineError):
    """A runtime failure while executing a physical plan."""


class ConstraintViolation(EngineError):
    """A table- or transaction-level constraint was violated."""
