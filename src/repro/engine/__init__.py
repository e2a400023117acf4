"""Batch query execution layer (shared-buffer query engine).

Public entry point is :class:`QueryEngine`, which runs batches of kNN
and range queries against one IQ-tree while sharing page fetches,
decodes, and third-level refinements across the batch, optionally
through a shared :class:`~repro.storage.cache.BufferPool`.

Two further amortization/serving layers live here as well:
:class:`DecodedPageCache` keeps decoded quantized pages (and their
derived cell bounds) resident *across* batches under a byte budget, and
:class:`WorkerPool` shards the per-query CPU phases of a batch over
worker processes (inline for one worker) while keeping results, I/O ledgers,
and observability counters bit-identical to serial execution.  The
per-query phases themselves are the pure, picklable kernels of
:mod:`repro.engine.kernels`.
"""

from repro.engine.concurrent import WorkerPool
from repro.engine.engine import BatchQueryResult, BatchResult, QueryEngine
from repro.engine.page_cache import DecodedPageCache
from repro.engine.sharding import (
    Shard,
    ShardBatchTrace,
    ShardedBatchResult,
    ShardRouter,
)
from repro.engine.stats import BatchStats, QueryStats

__all__ = [
    "QueryEngine",
    "BatchResult",
    "BatchQueryResult",
    "BatchStats",
    "QueryStats",
    "DecodedPageCache",
    "WorkerPool",
    "ShardRouter",
    "Shard",
    "ShardBatchTrace",
    "ShardedBatchResult",
]
