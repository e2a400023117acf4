"""Statistics emitted by the batch query engine.

Two granularities are reported: :class:`BatchStats` aggregates the
shared, physical side of a batch (simulated I/O, unique pages fetched,
buffer-pool traffic), while each query's :class:`QueryStats` records the
logical work done on its behalf (candidate pages and points examined,
exact-coordinate refinements it needed).  Physical I/O is deliberately
*not* attributed per query: a page transferred once may serve many
queries of the batch, which is the whole point of batching.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.disk import IOStats

__all__ = ["QueryStats", "BatchStats"]


@dataclass
class QueryStats:
    """Logical work performed for one query of a batch.

    Attributes
    ----------
    candidate_pages:
        Directory pages whose MBR could not be pruned for this query.
    candidate_points:
        Points (cells or exact rows) examined on those pages.
    refinements:
        Third-level exact-coordinate look-ups this query required.
    """

    candidate_pages: int
    candidate_points: int
    refinements: int


@dataclass
class BatchStats:
    """Physical, shared cost of executing one batch.

    Attributes
    ----------
    n_queries:
        Number of queries in the batch.
    io:
        Simulated-I/O delta of the whole batch.
    pages_read:
        Unique quantized data pages fetched (each at most once).
    refinements:
        Unique third-level point records fetched (each at most once).
    bytes_transferred:
        ``io.blocks_read`` scaled to bytes by the disk's block size.
    pool_hits, pool_misses:
        Buffer-pool lookups charged during the batch (both zero when no
        pool is attached).
    retries, quarantined, degraded_results, lost_pages:
        Fault-tolerance activity during this batch (all zero without an
        attached fault context): reads retried after a fault, blocks
        newly quarantined, results degraded to a quantization interval,
        and per-query lost-page reports.
    decoded_pages_reused:
        Pages served already-decoded from the tree's cross-batch
        :class:`~repro.engine.page_cache.DecodedPageCache` (zero when
        none is attached); these paid neither fetch nor decode.
    workers:
        Worker count the batch executed with (1 = serial).
    """

    n_queries: int
    io: IOStats
    pages_read: int
    refinements: int
    bytes_transferred: int
    pool_hits: int = 0
    pool_misses: int = 0
    retries: int = 0
    quarantined: int = 0
    degraded_results: int = 0
    lost_pages: int = 0
    decoded_pages_reused: int = 0
    workers: int = 1

    @classmethod
    def merge_shards(
        cls,
        shard_stats: "list[BatchStats]",
        *,
        n_queries: int,
        workers: int,
        extra_lost_pages: int = 0,
    ) -> "BatchStats":
        """Merge per-shard batch stats into one scatter-gather view.

        ``shard_stats`` are the stats of each *contacted* shard, in
        shard-visit order; their I/O ledgers are merged in that order
        and every additive counter -- pages,
        refinements, pool traffic, fault-tolerance activity -- is
        summed.  Two fields are deliberately *not* taken from the
        shards: ``n_queries`` is the router's batch size (each shard
        only saw its unpruned sub-batch, so summing would double-count
        queries sent to several shards), and ``workers`` is the shared
        pool's worker count (the last shard's value is not
        authoritative -- a fully-pruned batch has no last shard at
        all).  ``extra_lost_pages`` accounts for lost-page reports the
        router synthesized itself for dead shards, which no shard engine
        ever saw.  An empty ``shard_stats`` (every shard pruned or
        dead) yields all-zero stats whose rate properties are 0.0, not
        NaN.
        """
        io = IOStats()
        for stats in shard_stats:
            io = io.merged_with(stats.io)
        return cls(
            n_queries=n_queries,
            io=io,
            pages_read=sum(s.pages_read for s in shard_stats),
            refinements=sum(s.refinements for s in shard_stats),
            bytes_transferred=sum(
                s.bytes_transferred for s in shard_stats
            ),
            pool_hits=sum(s.pool_hits for s in shard_stats),
            pool_misses=sum(s.pool_misses for s in shard_stats),
            retries=sum(s.retries for s in shard_stats),
            quarantined=sum(s.quarantined for s in shard_stats),
            degraded_results=sum(
                s.degraded_results for s in shard_stats
            ),
            lost_pages=sum(s.lost_pages for s in shard_stats)
            + extra_lost_pages,
            decoded_pages_reused=sum(
                s.decoded_pages_reused for s in shard_stats
            ),
            workers=workers,
        )

    @property
    def degraded(self) -> bool:
        """True when any result of the batch is not exact."""
        return bool(self.degraded_results or self.lost_pages)

    @property
    def pool_hit_rate(self) -> float:
        """Pool hits / lookups within this batch (0 when no lookups)."""
        total = self.pool_hits + self.pool_misses
        return self.pool_hits / total if total else 0.0

    @property
    def decode_reuse_rate(self) -> float:
        """Decoded-cache hits / pages needed this batch (0 when none)."""
        total = self.decoded_pages_reused + self.pages_read
        return self.decoded_pages_reused / total if total else 0.0

    @property
    def mean_time(self) -> float:
        """Simulated seconds per query (elapsed / n_queries)."""
        if self.n_queries == 0:
            return 0.0
        return self.io.elapsed / self.n_queries

    def __repr__(self) -> str:
        return (
            f"BatchStats(n_queries={self.n_queries}, "
            f"elapsed={self.io.elapsed:.4f}s, seeks={self.io.seeks}, "
            f"pages_read={self.pages_read}, "
            f"refinements={self.refinements}, "
            f"pool_hit_rate={self.pool_hit_rate:.2f})"
        )
