"""repro — Similarity Queries on Structured Data in Structured Overlays.

A complete Python reproduction of Karnstedt, Sattler, Hauswirth & Schmidt
(ICDE 2006): vertical triple storage on a simulated P-Grid DHT, the VQL
query language, q-gram string-similarity operators, similarity joins,
rank-aware top-N queries, and the paper's Figure 1 evaluation harness.

Quickstart::

    from repro import QueryEngine, StoreConfig, Triple

    triples = [Triple("w:0001", "word:text", "overlay")]
    engine = QueryEngine.build(n_peers=64, triples=triples)
    hits = engine.similar("overlai", "word:text", d=1)

:class:`QueryEngine` is the unified facade (network + statistics +
cost-based adaptive strategy selection + workload memos).  Dict-shaped
records and horizontal relations become triples through
:func:`repro.storage.schema.record_to_triples` and
:func:`repro.storage.schema.rows_to_triples`.
"""

from repro.core.config import (
    RankFunction,
    SimilarityStrategy,
    StoreConfig,
    TrieBalancing,
)
from repro.core.errors import ReproError
from repro.core.stats import QueryStats
from repro.engine import QueryEngine
from repro.overlay.faults import (
    Completeness,
    FaultMode,
    FaultPlan,
    RetryPolicy,
)
from repro.storage.schema import RelationSchema
from repro.storage.triple import Triple

__version__ = "1.0.0"

__all__ = [
    "Completeness",
    "FaultMode",
    "FaultPlan",
    "QueryEngine",
    "RetryPolicy",
    "QueryStats",
    "RankFunction",
    "RelationSchema",
    "ReproError",
    "SimilarityStrategy",
    "StoreConfig",
    "TrieBalancing",
    "Triple",
    "__version__",
]
