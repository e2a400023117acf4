"""Batch execution of kNN and range queries over one IQ-tree.

The single-query algorithms in :mod:`repro.core.search` pay the full
index walk per query: a directory scan, a best-first page schedule, and
one third-level look-up per refined point.  Serving heavy traffic means
amortizing all three across a *batch* of queries, which is what
:class:`QueryEngine` does:

* the first-level directory is scanned **once per batch**, and the MBR
  mindist/maxdist of *all* queries against *all* pages are computed in
  one vectorized numpy pass (:func:`~repro.geometry.mbr.mindist_matrix`);
* the union of every query's candidate pages is fetched through **one**
  optimal batched transfer (Section 2 strategy) and each page is decoded
  at most once per batch -- same-width pages through the bulk bit-unpack
  entry point -- so a page needed by five queries is read and unpacked
  once, not five times;
* third-level exact-coordinate refinements of all queries are collected
  and fetched through **one** batched plan
  (:func:`~repro.storage.scheduler.plan_batched_fetch`) over the union
  of their blocks.

kNN batches use a two-phase filter-and-refine plan (the VA-file
discipline applied to the IQ-tree): the directory maxdist matrix yields
a per-query guaranteed radius (the smallest maxdist prefix covering
``k`` points), every page whose mindist is inside it is a candidate,
and after decoding, the k-th smallest per-point *upper* bound prunes
the refinement set while keeping the exact answer -- any true neighbor
has a lower bound below that threshold.  Range batches take each
query's radius as its candidate bound instead.  Both kinds run one
driver under one guard (write lock, flight recorder, storage-error
translation); they differ only in the ``k`` / ``radii`` field of the
single :class:`~repro.engine.kernels.BatchTask` the driver ships through
both per-query phases, and only kNN computes the maxdist matrix.
Results are exact and agree with
:func:`repro.core.search.nearest_neighbors` / ``range_search``.

An optional shared :class:`~repro.storage.cache.BufferPool` spans
batches (and possibly several indexes), so hot directory and data
blocks stay resident across calls; an optional
:class:`~repro.engine.page_cache.DecodedPageCache` extends the
amortization one level up, keeping *decoded* pages (and their cell
bounds) resident across batches under a byte budget.

With ``workers > 1`` the per-query phases -- candidate bounding and
result assembly -- are sharded across a
:class:`~repro.engine.concurrent.WorkerPool`.  The phases are the pure,
picklable kernels of :mod:`repro.engine.kernels`: their inputs are
plain arrays (query rows, candidate masks, decoded matrices, cell-bound
boxes), never an ``IQTree``, ``BlockFile``, or cache object, so they
run inline or on worker *processes* -- which is what converts simulated
speedup into wall-clock speedup on multi-core hosts.  When the pool
ships a batch to processes (:meth:`WorkerPool.ships`), the driver
freezes the task into a shared arena once, so both phases read the same
zero-copy arrays.  Every simulated-I/O charge (directory scan, page
fetch, third-level fetch) and every side effect on shared state
(fault-context counters, registry instruments) stays on the coordinator
thread and is applied in query order, so results, the I/O ledger, and
the observability counters are bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.search import (
    checked_k,
    checked_queries,
    checked_radius,
    next_query_id,
    raise_query_error,
)
from repro.core.tree import IQTree
from repro.engine.concurrent import WorkerPool
from repro.engine.decode import ExactBatchStore, PageDecodeCache
from repro.engine.kernels import (
    BatchQueryResult,
    BatchTask,
    assemble_knn_shard,
    assemble_range_shard,
    plan_knn_shard,
    plan_range_shard,
)
from repro.engine.shm import SharedArena
from repro.engine.stats import BatchStats
from repro.exceptions import SearchError, StorageError
from repro.obs.drift import MONITOR as _DRIFT
from repro.obs.flight import observe_batch
from repro.obs.instruments import (
    BATCH_QUERIES,
    BATCHES,
    QUERY_SECONDS,
    REGISTRY,
)
from repro.obs.tracing import active_tracer
from repro.obs.tracing import span as obs_span
from repro.geometry.mbr import maxdist_matrix, mindist_matrix
from repro.storage.cache import BufferPool
from repro.storage.disk import io_delta, io_snapshot

__all__ = [
    "QueryEngine",
    "BatchQueryResult",
    "BatchResult",
    "guarantee_radii",
]


def apply_degraded_effects(ctx, assembled: list[dict]) -> list:
    """Apply each query's degraded-mode side effects, in query order.

    The assemble kernels return pure results plus the count of interval
    fallbacks they computed; this coordinator pass feeds the fault
    context's session counters (and through them the registry
    instruments), so counter values cannot depend on how the queries
    were sharded over workers.  Returns the results.
    """
    results = []
    for item in assembled:
        result = item["result"]
        if item["n_intervals"]:
            ctx.degrade(item["n_intervals"])
        if result.lost_pages:
            ctx.lose_pages(len(result.lost_pages))
        results.append(result)
    return results


def guarantee_radii(
    dmax: np.ndarray, counts: np.ndarray, k: int
) -> np.ndarray:
    """Per-query radius guaranteed to contain at least k points.

    For each query, pages are taken in ascending maxdist order until
    their point counts cover ``k``; the last maxdist bounds the k-th
    neighbor from above, so any page whose mindist exceeds it can be
    pruned before any data page is read.  When fewer than ``k`` points
    are live (deletions), nothing can be pruned and the radius is
    infinite.  Shared by the engine (over one tree's directory) and the
    shard router (over the global directory spanning every shard).
    """
    order = np.argsort(dmax, axis=1, kind="stable")
    cum = np.cumsum(np.take(counts, order), axis=1)
    covered = cum >= k
    radii = np.full(dmax.shape[0], np.inf)
    reached = covered.any(axis=1)
    if np.any(reached):
        pos = np.argmax(covered[reached], axis=1)
        rows = np.flatnonzero(reached)
        radii[rows] = dmax[rows, order[rows, pos]]
    return radii


def _stitch_worker_records(tracer, phase: str, items: list[dict]) -> None:
    """Graft per-query worker records into the live trace, in order.

    ``items`` are a phase's per-query outputs, already in batch query
    order (``map_sharded`` restores it), so the stitched tree is
    independent of worker count.  The records are popped off the
    outputs either way; without a tracer nothing is stitched.  A query
    without records is the silent-drop failure mode the stitching
    protocol exists to eliminate; only a kernel bug can cause it, so it
    raises.
    """
    per_query = [item.pop("spans", ()) for item in items]
    if tracer is None:
        return
    if any(not recs for recs in per_query):
        raise SearchError(
            f"tracing active but the {phase} kernel returned no span "
            "records for at least one query; worker-side spans would be "
            "silently dropped from the stitched trace"
        )
    tracer.stitch([rec for recs in per_query for rec in recs])


@dataclass
class BatchResult:
    """All per-query answers of a batch plus the shared batch cost."""

    queries: list[BatchQueryResult]
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __getitem__(self, index: int) -> BatchQueryResult:
        return self.queries[index]


class QueryEngine:
    """Executes query batches against one IQ-tree.

    Parameters
    ----------
    tree:
        The index to serve.
    pool:
        Optional buffer pool: a
        :class:`~repro.storage.cache.BufferPool` instance (possibly
        shared with other engines/indexes on the same disk) or an
        integer capacity in blocks.  When omitted, a pool already
        attached to the tree is used; when the tree has none, reads go
        straight to the simulated disk.
    workers:
        Workers the per-query phases shard over (default 1 = serial).
        Any count yields identical results, ledgers, and counters; see
        the module docstring.
    decode_cache:
        Optional cross-batch decoded-page cache: a
        :class:`~repro.engine.page_cache.DecodedPageCache` or an
        integer byte budget, attached to the tree via
        :meth:`~repro.core.tree.IQTree.use_decoded_cache`.  When
        omitted, a cache already attached to the tree is used.
    backend:
        ``"auto"`` (default) or ``"process"``; both mean the one
        executor (see :class:`~repro.engine.concurrent.WorkerPool`).
        Anything else raises :class:`~repro.exceptions.SearchError`.
    worker_pool:
        An externally owned :class:`~repro.engine.concurrent.WorkerPool`
        to execute on instead of creating one (the shard router shares
        a single pool across every shard engine this way).  The caller
        keeps ownership: :meth:`close` leaves a borrowed pool running.
        Mutually exclusive with ``workers``.
    """

    def __init__(
        self,
        tree: IQTree,
        pool: BufferPool | int | None = None,
        workers: int = 1,
        decode_cache=None,
        backend: str = "auto",
        worker_pool: WorkerPool | None = None,
    ):
        if backend not in ("auto", "process"):
            raise SearchError(
                f"backend must be 'auto' or 'process', got {backend!r}"
            )
        self.tree = tree
        if pool is not None:
            tree.use_buffer_pool(pool)
        if decode_cache is not None:
            tree.use_decoded_cache(decode_cache)
        if worker_pool is not None:
            self._worker_pool = worker_pool
            self._owns_workers = False
        else:
            self._worker_pool = WorkerPool(workers)
            self._owns_workers = True
        self.workers = self._worker_pool.workers

    @property
    def pool(self) -> BufferPool | None:
        """The buffer pool currently attached to the tree, or None.

        Read live from the tree rather than captured at construction,
        so a later ``tree.use_buffer_pool(...)`` swap cannot leave the
        engine computing hit/miss deltas against a detached pool's
        (stale, frozen) counters.
        """
        return self.tree._pool

    @property
    def decode_cache(self):
        """The decoded-page cache currently attached to the tree."""
        return self.tree._decoded_cache

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down (the engine stays usable).

        A borrowed worker pool (``worker_pool=`` at construction) is
        left running; its owner closes it.
        """
        if self._owns_workers:
            self._worker_pool.close()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def knn_batch(
        self,
        queries: np.ndarray,
        k: int = 1,
        radius_cap: np.ndarray | None = None,
    ) -> BatchResult:
        """Exact k-nearest-neighbor search for a batch of queries.

        With a fault context attached to the tree
        (``tree.use_fault_tolerance()``), unreadable data degrades the
        affected results (see :class:`BatchQueryResult`) instead of
        aborting the batch; without one, storage failures surface as
        :class:`~repro.exceptions.QueryDataError`.

        ``radius_cap`` is an optional per-query array, shape ``(q,)``,
        of externally known upper bounds on the k-th neighbor distance;
        the candidate radius becomes the elementwise minimum of the
        tree's own guarantee radius and the cap.  The shard router
        passes its running global bound here so a shard never examines
        pages that provably cannot contribute.  Exactness is preserved
        whenever each cap is a sound upper bound on that query's k-th
        distance *within the caller's final merged answer*.
        """
        tree = self.tree
        checked_k(k, tree.n_points)
        tree._ensure_clean()
        queries = checked_queries(tree, queries)
        if radius_cap is not None:
            radius_cap = np.asarray(radius_cap, dtype=np.float64)
            if radius_cap.shape != (queries.shape[0],):
                raise SearchError(
                    "radius_cap must have one entry per query"
                )
        return self._guarded(
            "knn-batch", lambda: self._batch(queries, k, None, radius_cap)
        )

    def range_batch(self, queries: np.ndarray, radius) -> BatchResult:
        """Range search (all points within a radius) for a batch.

        ``radius`` is one scalar shared by every query or an array of
        per-query radii, shape ``(q,)``.  Degraded-mode semantics match
        :meth:`knn_batch`: uncertain points whose cell overlaps the
        radius are *included* (marked via ``certain``/``intervals``),
        and wholly lost pages are reported with an infinite maxdist
        because their contribution cannot be bounded.
        """
        tree = self.tree
        tree._ensure_clean()
        queries = checked_queries(tree, queries)
        radii = checked_radius(radius, (queries.shape[0],))
        return self._guarded(
            "range-batch", lambda: self._batch(queries, None, radii, None)
        )

    def _guarded(self, kind: str, run) -> BatchResult:
        """Run one batch under the tree's write lock and flight recorder.

        The lock serializes the batch against maintenance sweeps (they
        take the same lock), so pages can never be swapped out from
        under it; a storage failure surfaces as a QueryDataError.
        """
        tree = self.tree
        batch_id = next_query_id()
        try:
            with tree._write_lock:
                if tree._flight_recorder is not None:
                    return observe_batch(
                        tree._flight_recorder, tree, kind, batch_id, run
                    )
                return run()
        except StorageError as exc:
            raise_query_error(exc, tree, batch_id)

    def _batch(
        self,
        queries: np.ndarray,
        k: int | None,
        radii: np.ndarray | None,
        radius_cap: np.ndarray | None,
    ) -> BatchResult:
        """The batch driver: kNN when ``k`` is set, range otherwise."""
        tree = self.tree
        knn = k is not None
        n_queries = queries.shape[0]
        before = io_snapshot(tree.disk)
        pool_before = self._pool_counters()
        fault_before = self._fault_counters()
        metric = tree.metric
        tracer = active_tracer()

        with obs_span(
            "directory-scan", disk=tree.disk, pages=tree.n_pages
        ):
            tree._charge_directory_scan()
            dmin = mindist_matrix(
                queries, tree._lowers, tree._uppers, metric
            )
            dmax = (
                maxdist_matrix(queries, tree._lowers, tree._uppers, metric)
                if knn
                else None
            )
        with obs_span("schedule", disk=tree.disk, queries=n_queries):
            bound = radii
            if knn:
                bound = guarantee_radii(dmax, tree._counts, k)
                if radius_cap is not None:
                    bound = np.minimum(bound, radius_cap)
            cand_mask = dmin <= bound[:, None]

        cache = PageDecodeCache(tree)
        # "fetch" and "decode" spans open inside load(); all simulated
        # I/O of the batch happens here and in fetch_all below, on this
        # coordinator thread.
        cache.load(np.flatnonzero(cand_mask.any(axis=0)))
        cache.ensure_bounds()

        arena = None
        try:
            with obs_span("refine", disk=tree.disk) as refine_span:
                task = BatchTask(
                    queries=queries,
                    k=k,
                    radii=radii,
                    cand_mask=cand_mask,
                    lost=frozenset(cache.lost_pages),
                    metric=metric,
                    table=cache.page_table(),
                    counts=tree._counts,
                    dmin=dmin,
                    dmax=dmax,
                    trace=tracer is not None,
                )
                if self._worker_pool.ships(n_queries):
                    arena = SharedArena.create()
                    task = task.freeze(arena)
                    arena.seal()
                # Phase 1 (workers, pure): per-query point-level bounds;
                # collect the refinement set (kNN: quantized points whose
                # lower bound is within the k-th smallest upper bound).
                plans = self._worker_pool.map_sharded(
                    plan_knn_shard if knn else plan_range_shard,
                    range(n_queries),
                    task,
                )
                _stitch_worker_records(tracer, "plan", plans)
                all_requests: set[tuple[int, int]] = set()
                for plan in plans:
                    all_requests.update(plan["refine"])

                # Phase 2 (coordinator): one batched third-level fetch
                # for every query.  Unreadable records are absent from
                # the map.
                exact_store = ExactBatchStore(tree)
                points = exact_store.fetch_all(all_requests)
                if refine_span is not None:
                    refine_span.attrs["records"] = len(all_requests)

                # Phase 3 (workers, pure): per-query result assembly.
                assembled = self._worker_pool.map_sharded(
                    assemble_knn_shard if knn else assemble_range_shard,
                    range(n_queries),
                    replace(task, plans=plans, points=points),
                )
                _stitch_worker_records(tracer, "assemble", assembled)
                results = apply_degraded_effects(tree._fault_ctx, assembled)
                if refine_span is not None and any(
                    r.degraded for r in results
                ):
                    refine_span.attrs["degraded"] = True
        finally:
            if arena is not None:
                arena.dispose()
        stats = self._batch_stats(
            n_queries, before, pool_before, fault_before, cache, exact_store
        )
        self._observe_batch(stats, results, k=k)
        return BatchResult(queries=results, stats=stats)

    # ------------------------------------------------------------------
    # Shared accounting
    # ------------------------------------------------------------------
    def _pool_counters(self) -> tuple[int, int]:
        if self.pool is None:
            return (0, 0)
        return (self.pool.hits, self.pool.misses)

    def _fault_counters(self) -> tuple[int, int, int, int]:
        ctx = self.tree._fault_ctx
        if ctx is None:
            return (0, 0, 0, 0)
        return (
            ctx.retries,
            ctx.quarantined,
            ctx.degraded_results,
            ctx.lost_pages,
        )

    def _batch_stats(
        self, n_queries, before, pool_before, fault_before, cache, exact_store
    ) -> BatchStats:
        tree = self.tree
        io = io_delta(before, io_snapshot(tree.disk))
        if self.pool is None:
            hits = misses = 0
        else:
            hits = self.pool.hits - pool_before[0]
            misses = self.pool.misses - pool_before[1]
        fault_after = self._fault_counters()
        return BatchStats(
            n_queries=n_queries,
            io=io,
            pages_read=cache.pages_fetched,
            refinements=exact_store.refinements,
            bytes_transferred=io.blocks_read
            * tree.disk.model.block_size,
            pool_hits=hits,
            pool_misses=misses,
            retries=fault_after[0] - fault_before[0],
            quarantined=fault_after[1] - fault_before[1],
            degraded_results=fault_after[2] - fault_before[2],
            lost_pages=fault_after[3] - fault_before[3],
            decoded_pages_reused=cache.pages_cached,
            workers=self.workers,
        )

    def _observe_batch(
        self,
        stats: BatchStats,
        results: list[BatchQueryResult],
        k: int | None,
    ) -> None:
        """Feed registry instruments and the drift monitor (kNN only).

        Physical I/O already landed in the registry through the
        simulated disk; this records the engine-level view (batch and
        per-query shape) plus predicted-vs-actual drift samples.  The
        cost model predicts kNN queries, so range batches (``k=None``)
        record no drift.
        """
        if not REGISTRY.enabled or stats.n_queries == 0:
            return
        BATCHES.inc()
        BATCH_QUERIES.inc(stats.n_queries)
        per_query_seconds = stats.io.elapsed / stats.n_queries
        for result in results:
            QUERY_SECONDS.observe(per_query_seconds)
            if k is not None:
                _DRIFT.observe_query(
                    self.tree,
                    k,
                    actual_pages=result.stats.candidate_pages,
                    actual_seconds=per_query_seconds,
                )
