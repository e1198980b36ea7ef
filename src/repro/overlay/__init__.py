"""P-Grid overlay substrate: keys, hashing, trie, peers, routing, ranges."""

from repro.overlay.churn import ChurnController, ChurnReport
from repro.overlay.faults import (
    Completeness,
    DeliveryOutcome,
    FaultInjector,
    FaultMode,
    FaultPlan,
    FaultSession,
    RetryPolicy,
)
from repro.overlay.hashing import (
    CompositeKeyCodec,
    NumericKeyCodec,
    OrderPreservingStringHash,
    uniform_key,
)
from repro.overlay.incremental import (
    BuildReport,
    IncrementalNetworkBuilder,
    PreparedDataset,
    assert_networks_equivalent,
)
from repro.overlay.messages import CostReport, MessageTracer, MessageType
from repro.overlay.network import PGridNetwork
from repro.overlay.peer import Peer
from repro.overlay.range_query import RangeQueryResult, range_query
from repro.overlay.routing import Partition, Router

__all__ = [
    "BuildReport",
    "ChurnController",
    "ChurnReport",
    "Completeness",
    "CompositeKeyCodec",
    "CostReport",
    "DeliveryOutcome",
    "FaultInjector",
    "FaultMode",
    "FaultPlan",
    "FaultSession",
    "RetryPolicy",
    "IncrementalNetworkBuilder",
    "assert_networks_equivalent",
    "MessageTracer",
    "MessageType",
    "NumericKeyCodec",
    "OrderPreservingStringHash",
    "PGridNetwork",
    "Partition",
    "Peer",
    "PreparedDataset",
    "RangeQueryResult",
    "Router",
    "range_query",
    "uniform_key",
]
