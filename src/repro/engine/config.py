"""Engine configuration: two targets and the switches that pick between them.

One frozen :class:`EngineConfig`, passed as ``config=`` to
:class:`GameWorld`, the executor, the planner and every ``build_*_world``
constructor, says which target plans are lowered for (``config=None``
means ``EngineConfig()``):

* ``EngineConfig()`` — the compiled engine.  Kernels, tick-wide shared
  subplans with fused effect sinks, band joins that probe indexes, the
  index advisor that creates those indexes, and semi-naive fixpoints.
  The engine decides among these paths itself; no switch overrides a
  single one.
* :meth:`EngineConfig.reference` — the row-path oracle every equivalence
  test compares against: each query runs its own row-operator plan, with
  no views and the naive fixpoint loop.

``use_incremental`` stays separate because callers need it on the compiled
target: bit-exact float checkpoint replay needs ``use_incremental=False``
(an incrementally maintained sum may differ from a fresh fold by
rounding), and so do the fixpoint benchmark's cold semi-naive arms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """Immutable choice of execution target plus one maintenance switch.

    ``use_batch``       the compiled engine: kernels
                        (:mod:`repro.engine.compile.kernels`), shared
                        subplans, index-probing band joins, the index
                        advisor and semi-naive fixpoints (each round joins
                        only the previous round's delta); ``False`` runs
                        every query's own plan on the row operators, and
                        recursive plans in the naive loop over the full
                        accumulator.
    ``use_incremental`` maintain delta-incremental views for standing
                        queries, and warm-restart cached fixpoint closures.
    """

    use_batch: bool = True
    use_incremental: bool = True

    # -- presets ---------------------------------------------------------------------------

    @classmethod
    def fastest(cls) -> "EngineConfig":
        """The default config under the name the e2e harness uses."""
        return cls()

    @classmethod
    def reference(cls) -> "EngineConfig":
        """Row-path-only semantics oracle: no kernels, views, sharing or indexes."""
        return cls(use_batch=False, use_incremental=False)

    # -- derivation ------------------------------------------------------------------------

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields changed (frozen dataclasses can't mutate)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for reports and benchmark metadata."""
        return asdict(self)
