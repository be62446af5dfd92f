"""Engine configuration: one frozen object instead of scattered boolean flags.

Every optional engine path (compiled columnar kernels, incremental views,
shared subplans, index plans, the index advisor, semi-naive fixpoints) is
switched by one :class:`EngineConfig`, passed as ``config=``
to :class:`GameWorld`, the executor, the planner and every
``build_*_world`` constructor.  ``config=None`` means
:meth:`EngineConfig.from_env`.

Named presets (:meth:`EngineConfig.reference`, :meth:`EngineConfig.debug`,
and :meth:`EngineConfig.fastest`, which is the default) capture the
configurations benchmarks and bug reports actually use, and
``REPRO_ENGINE_PRESET`` selects one from the environment so CI can run the
whole suite under another configuration.  To change a few switches on top
of the environment's preset, write ``EngineConfig.from_env().replace(...)``.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, replace
from typing import Any

__all__ = ["EngineConfig"]

_PRESET_ENV_VAR = "REPRO_ENGINE_PRESET"


@dataclass(frozen=True)
class EngineConfig:
    """Immutable switchboard for every optional engine path.

    ``use_batch``       lower fusable plans to compiled columnar kernels
                        (:mod:`repro.engine.compile.kernels`); ``False``
                        runs every plan on the row operators.
    ``use_incremental`` maintain delta-incremental views for standing queries.
    ``use_mqo``         share common subplans across the tick's query set.
    ``use_indexes``     let the physical planner pick index scans/probes.
    ``auto_index``      run the index advisor (create/evict grid indexes).
    ``use_fixpoint``    evaluate recursive Fixpoint plans semi-naive (each
                        round joins only the previous round's delta);
                        ``False`` runs the naive reference loop over the
                        full accumulator.
    ``index_create_after`` / ``index_evict_after``
                        advisor tuning: hot streak before creating an
                        index, idle ticks before evicting one.
    """

    use_batch: bool = True
    use_incremental: bool = True
    use_mqo: bool = True
    use_indexes: bool = True
    auto_index: bool = True
    use_fixpoint: bool = True
    index_create_after: int = 3
    index_evict_after: int = 30

    # -- presets ---------------------------------------------------------------------------

    @classmethod
    def fastest(cls) -> "EngineConfig":
        """The default config under the name the e2e harness uses."""
        return cls()

    @classmethod
    def reference(cls) -> "EngineConfig":
        """Row-path-only semantics oracle: no batch, views, sharing or indexes."""
        return cls(
            use_batch=False,
            use_incremental=False,
            use_mqo=False,
            use_indexes=False,
            auto_index=False,
            use_fixpoint=False,
        )

    @classmethod
    def debug(cls) -> "EngineConfig":
        """Deterministic single-query plans: sharing and the self-tuning
        advisor off, so every query keeps its own inspectable operator
        tree."""
        return cls(use_mqo=False, auto_index=False)

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The preset named by ``REPRO_ENGINE_PRESET`` (default config if unset)."""
        preset = os.environ.get(_PRESET_ENV_VAR, "").strip().lower()
        if preset in ("", "default"):
            return cls()
        if preset == "fastest":
            return cls.fastest()
        if preset == "reference":
            return cls.reference()
        if preset == "debug":
            return cls.debug()
        raise ValueError(
            f"unknown {_PRESET_ENV_VAR}={preset!r}; "
            "expected one of: default, fastest, reference, debug"
        )

    # -- derivation ------------------------------------------------------------------------

    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with the given fields changed (frozen dataclasses can't mutate)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for reports and benchmark metadata."""
        return asdict(self)
