"""Shard layout: how one world is split along a spatial axis.

A :class:`ShardSpec` is the single source of truth shared by the
coordinator and every worker: the partition axis, the world extent, which
classes are partitioned (the rest are replicated), and how wide the halo
strip around each boundary must be.  All ownership decisions go through
:meth:`shard_of` — a binary search over the interior cut positions — and
span routing (:meth:`shards_for_span`, used for AOI subscriptions) is the
same search at both ends, so the coordinator's routing, the workers'
:class:`~repro.engine.algebra.Exchange` plans and the
:class:`~repro.engine.algebra.ShardedScan` range predicates can never
disagree about where a row lives.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

__all__ = ["ShardSpec"]


@dataclass(frozen=True)
class ShardSpec:
    """Static description of a sharded world layout.

    ``halo_width`` must be at least the largest interaction range of any
    script (the widest band-join probe), or boundary actors silently miss
    partners on the far side.  With ``adaptive_halo`` the workers instead
    size the strip from the index advisor's observed probe widths
    (``max probe width × (1 + halo_margin)``, never below ``halo_width``
    as the floor) — see ``IndexAdvisor.probe_width_report``.
    """

    axis_column: str = "x"
    world_min: float = 0.0
    world_max: float = 100.0
    halo_width: float = 12.0
    adaptive_halo: bool = False
    halo_margin: float = 0.25
    partitioned_classes: tuple[str, ...] = ("Unit",)
    replicated_classes: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.world_max <= self.world_min:
            raise ValueError("shard spec needs world_max > world_min")
        if self.halo_width < 0:
            raise ValueError("halo width must be non-negative")

    # -- geometry ------------------------------------------------------------------------

    def cuts(self, n_shards: int) -> tuple[float, ...]:
        """Interior shard boundaries, ascending (``n_shards - 1`` values)."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        width = (self.world_max - self.world_min) / n_shards
        return tuple(self.world_min + width * i for i in range(1, n_shards))

    def shard_range(self, shard_id: int, n_shards: int) -> tuple[float | None, float | None]:
        """Half-open ownership range of one shard; ``None`` = unbounded edge.

        Edge shards are unbounded so objects pushed outside the configured
        world extent (clamped physics, scripted teleports) still have
        exactly one owner.
        """
        cuts = self.cuts(n_shards)
        low = None if shard_id == 0 else cuts[shard_id - 1]
        high = None if shard_id == n_shards - 1 else cuts[shard_id]
        return low, high

    def shard_of(self, value: float, n_shards: int) -> int:
        """Owning shard of an axis *value* (authoritative: used everywhere)."""
        return bisect_right(self.cuts(n_shards), value)

    def shards_for_span(self, low: float, high: float, n_shards: int) -> range:
        """Shards whose ranges overlap the closed span ``[low, high]``."""
        cuts = self.cuts(n_shards)
        return range(bisect_right(cuts, low), bisect_right(cuts, high) + 1)

    # -- halo sizing ---------------------------------------------------------------------

    def effective_halo(self, observed_max_probe_width: float | None) -> float:
        """Halo strip width given the advisor's observed probe widths.

        Probe width is the full extent of a band probe (``2 × range``), so
        half of it is the reach past a boundary; the margin buys headroom
        for per-row range spread that per-execution averages hide.
        """
        if not self.adaptive_halo or observed_max_probe_width is None:
            return self.halo_width
        adaptive = (observed_max_probe_width / 2.0) * (1.0 + self.halo_margin)
        return max(self.halo_width, adaptive)
