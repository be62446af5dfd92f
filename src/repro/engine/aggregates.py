"""Aggregate / effect-combinator functions.

The same combinators serve two roles in the system, mirroring the paper:

* as SQL-style aggregate functions in :class:`~repro.engine.algebra.Aggregate`
  plan nodes, and
* as the ⊕ effect combinators of the state-effect pattern — "effects are
  combined using aggregate functions" (Section 2) — re-exported by
  :mod:`repro.runtime.effects`.

Each combinator is an incremental accumulator (so physical operators and
effect sinks can merge partial aggregates) with an explicit identity value.
``choose`` implements the paper's deterministic conflict resolution
operator ⊕ used for exclusive effects (e.g. a seller picking one buyer): it
keeps the smallest value by sort order, which makes the outcome independent
of evaluation order, as the tick semantics require.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.errors import ExecutionError

__all__ = ["Accumulator", "AGGREGATE_NAMES", "make_accumulator", "combine_values"]


class Accumulator:
    """Incrementally combines values and can merge with another accumulator."""

    def __init__(self, func: str):
        self.func = func
        self._count = 0
        self._value: Any = None
        self._items: list[Any] | None = [] if func in ("collect", "union", "avg", "median") else None

    # -- feeding values -----------------------------------------------------------

    def add(self, value: Any) -> None:
        """Fold one value into the accumulator.  ``None`` values are skipped
        except for ``count`` where only non-null values are counted (SQL
        semantics)."""
        if value is None:
            return
        self._count += 1
        func = self.func
        if func == "sum":
            self._value = value if self._value is None else self._value + value
        elif func == "count":
            pass
        elif func == "min":
            self._value = value if self._value is None else min(self._value, value)
        elif func == "max":
            self._value = value if self._value is None else max(self._value, value)
        elif func == "avg":
            self._items.append(value)
        elif func == "median":
            self._items.append(value)
        elif func == "any":
            self._value = bool(value) if self._value is None else (self._value or bool(value))
        elif func == "all":
            self._value = bool(value) if self._value is None else (self._value and bool(value))
        elif func == "union":
            self._items.append(value)
        elif func == "collect":
            self._items.append(value)
        elif func == "choose":
            self._value = value if self._value is None else self._pick(self._value, value)
        elif func == "first":
            if self._value is None:
                self._value = value
        elif func == "last":
            self._value = value
        else:  # pragma: no cover - guarded by make_accumulator
            raise ExecutionError(f"unknown aggregate {func!r}")

    def merge(self, other: "Accumulator") -> None:
        """Merge a partial accumulator computed on another partition."""
        if other.func != self.func:
            raise ExecutionError("cannot merge accumulators of different functions")
        self._count += other._count
        if self._items is not None and other._items is not None:
            self._items.extend(other._items)
            return
        if other._value is None:
            return
        if self._value is None:
            self._value = other._value
            return
        func = self.func
        if func == "sum":
            self._value = self._value + other._value
        elif func == "min":
            self._value = min(self._value, other._value)
        elif func == "max":
            self._value = max(self._value, other._value)
        elif func == "any":
            self._value = self._value or other._value
        elif func == "all":
            self._value = self._value and other._value
        elif func == "choose":
            self._value = self._pick(self._value, other._value)
        elif func == "first":
            pass
        elif func == "last":
            self._value = other._value

    # -- results --------------------------------------------------------------------

    def result(self) -> Any:
        """Return the combined value (the identity if nothing was added)."""
        func = self.func
        if func == "count":
            return self._count
        if func == "sum":
            return 0 if self._value is None else self._value
        if func == "avg":
            if not self._items:
                return None
            return sum(self._items) / len(self._items)
        if func == "median":
            if not self._items:
                return None
            ordered = sorted(self._items)
            mid = len(ordered) // 2
            if len(ordered) % 2:
                return ordered[mid]
            return (ordered[mid - 1] + ordered[mid]) / 2
        if func == "any":
            return bool(self._value) if self._value is not None else False
        if func == "all":
            return bool(self._value) if self._value is not None else True
        if func == "union":
            out: set[Any] = set()
            for item in self._items:
                if isinstance(item, (set, frozenset, list, tuple)):
                    out |= set(item)
                else:
                    out.add(item)
            return frozenset(out)
        if func == "collect":
            return tuple(self._items)
        return self._value

    @property
    def count(self) -> int:
        """How many non-null values were folded in."""
        return self._count

    @staticmethod
    def _pick(a: Any, b: Any) -> Any:
        """Deterministic choice for ⊕: the smaller by sort order wins."""
        try:
            return a if a <= b else b
        except TypeError:
            return a if repr(a) <= repr(b) else b


#: All aggregate / combinator names accepted by the engine and by SGL class
#: declarations (``number damage : sum;``).
AGGREGATE_NAMES: tuple[str, ...] = (
    "sum",
    "count",
    "min",
    "max",
    "avg",
    "median",
    "any",
    "all",
    "union",
    "collect",
    "choose",
    "first",
    "last",
)


def make_accumulator(func: str) -> Accumulator:
    """Create an accumulator, validating the function name."""
    if func not in AGGREGATE_NAMES:
        raise ExecutionError(
            f"unknown aggregate/combinator {func!r}; known: {', '.join(AGGREGATE_NAMES)}"
        )
    return Accumulator(func)


def combine_values(func: str, values: Iterable[Any]) -> Any:
    """Combine an iterable of values in one shot (used by the interpreter)."""
    acc = make_accumulator(func)
    for value in values:
        acc.add(value)
    return acc.result()
