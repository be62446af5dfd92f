"""Physical query operators: the row iterator model and the batch leaves
and bridge that compiled kernels plug into."""

from repro.engine.operators.aggregate import HashAggregateOp
from repro.engine.operators.base import PhysicalOperator
from repro.engine.operators.batch_ops import (
    BatchBridgeOp,
    BatchOperator,
    BatchTableScanOp,
    BatchValuesOp,
)
from repro.engine.operators.exchange import ExchangeOp
from repro.engine.operators.filter import FilterOp, ProjectOp
from repro.engine.operators.fixpoint import (
    FixpointOp,
    LinearStep,
    RecursiveCell,
    RecursiveSourceOp,
)
from repro.engine.operators.incremental import (
    BandIndexProbe,
    DeltaAggregateOp,
    DeltaFilterOp,
    DeltaJoinOp,
    DeltaOperator,
    DeltaProjectOp,
    DeltaScanOp,
    DeltaUnionOp,
    DeltaUnavailable,
    IncrementalDisabled,
    IncrementalError,
    IncrementalView,
)
from repro.engine.operators.joins import (
    HashJoinOp,
    IndexProbeJoinOp,
    NestedLoopJoinOp,
    RangeProbeJoinOp,
)
from repro.engine.operators.misc import UnionOp
from repro.engine.operators.shared import (
    BatchSharedSourceOp,
    EffectSinkOp,
    fold_rows_to_partials,
)
from repro.engine.operators.scan import TableScanOp, ValuesOp

__all__ = [
    "PhysicalOperator",
    "TableScanOp",
    "ValuesOp",
    "FilterOp",
    "ProjectOp",
    "NestedLoopJoinOp",
    "HashJoinOp",
    "RangeProbeJoinOp",
    "IndexProbeJoinOp",
    "ExchangeOp",
    "HashAggregateOp",
    "UnionOp",
    "FixpointOp",
    "LinearStep",
    "RecursiveCell",
    "RecursiveSourceOp",
    "BatchOperator",
    "BatchTableScanOp",
    "BatchValuesOp",
    "BatchBridgeOp",
    "BatchSharedSourceOp",
    "EffectSinkOp",
    "fold_rows_to_partials",
    "BandIndexProbe",
    "DeltaOperator",
    "DeltaScanOp",
    "DeltaFilterOp",
    "DeltaProjectOp",
    "DeltaJoinOp",
    "DeltaAggregateOp",
    "DeltaUnionOp",
    "DeltaUnavailable",
    "IncrementalError",
    "IncrementalDisabled",
    "IncrementalView",
]
