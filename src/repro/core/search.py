"""IQ-tree query processing (paper Sections 2.1 and 3.2).

Nearest-neighbor search is Hjaltason-Samet best-first search over a
priority list that mixes two granularities: whole data pages (first-level
MBRs) and the box approximations of individual points (grid cells of
loaded quantized pages).  A page that becomes the pivot is loaded and its
cells enter the list; a *point* that becomes the pivot is refined --
its exact coordinates are fetched from the third level -- because, as
the paper argues, no strategy can avoid that look-up.

Two page-access strategies are available:

* ``standard`` -- one random read per pivot page (how classic index
  structures operate);
* ``optimized`` -- the cost-balance scheduler of Section 2.1: when a
  page must be read, neighboring pages in file order whose estimated
  access probabilities (eqs. 2-5) make speculative reading cheaper in
  expectation than a later random seek are fetched in the same
  sequential transfer.

Both strategies run through one page loader (``_load_pages``) and one
refiner (``_refine``), with or without a fault context: without one a
storage failure propagates; with one, unreadable pages become
:class:`~repro.storage.runtime_faults.LostPage` records and unreadable
records fall back to their cell interval (``docs/robustness.md``).

A range query knows its candidate pages up front, so it runs the batch
engine's pipeline for one query: the batched page loader, the range
plan kernel and the shared assemble step of :mod:`repro.engine`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import (
    IntegrityError,
    QueryDataError,
    ReadFaultError,
    SearchError,
    StorageError,
)
from repro.costmodel.access_probability import (
    PageView,
    access_probabilities,
)
from repro.core.tree import ExactStore, IQTree, PageHandle
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.obs.drift import MONITOR as _DRIFT
from repro.obs.instruments import QUERY_SECONDS, REGISTRY
from repro.storage.disk import IOStats, io_delta, io_snapshot
from repro.storage.runtime_faults import LostPage, fault_address
from repro.storage.scheduler import cost_balance_window

__all__ = [
    "NNResult",
    "RangeResult",
    "KBest",
    "nearest_neighbors",
    "range_search",
    "browse_by_distance",
    "cell_interval",
    "certain_mask",
    "checked_query",
    "checked_queries",
    "checked_radius",
    "checked_k",
    "degraded_fields",
    "io_snapshot",
    "io_delta",
    "next_query_id",
    "locate_address",
    "raise_query_error",
]

#: Monotone query ids used to label QueryDataError context; shared with
#: the batch engine so every query on this process has a distinct id.
_QUERY_IDS = itertools.count(1)


def next_query_id() -> int:
    """Allocate a process-unique query id (error/trace context)."""
    return next(_QUERY_IDS)


def locate_address(tree, address: int) -> tuple[str | None, int | None]:
    """Map a disk address to ``(level_name, file-local block)``.

    Returns ``(None, None)`` when the address belongs to none of the
    tree's three level files (or the tree is mid-relayout).
    """
    for level, slot in (
        ("directory", "_dir_file"),
        ("quantized", "_quant_file"),
        ("exact", "_exact_file"),
    ):
        file = getattr(tree, slot, None)
        if file is None or not file.sealed:
            continue
        base = file.extent_start
        if base <= address < base + file.n_blocks:
            return level, address - base
    return None, None


def raise_query_error(exc: StorageError, tree, query_id: int):
    """Re-raise a mid-query storage failure as a QueryDataError.

    Keeps the original as ``__cause__`` and attaches query id, level
    name, and file-local block index so callers can tell data loss and
    corruption apart from API misuse (both are SearchError subclasses).
    """
    address = fault_address(exc)
    level = block = None
    if address is not None:
        level, block = locate_address(tree, address)
    where = f"the {level} level" if level else "index data"
    detail = f" (block {block})" if block is not None else ""
    raise QueryDataError(
        f"query {query_id} aborted: could not read {where}{detail}: {exc}",
        query_id=query_id,
        level=level,
        block=block,
    ) from exc

_PAGE = 0
_POINT = 1


@dataclass
class NNResult:
    """Result of a k-nearest-neighbor query.

    Attributes
    ----------
    ids:
        Point ids, ascending by distance, shape ``(k,)``.
    distances:
        Matching distances.
    io:
        Simulated-I/O delta of this query.
    pages_read:
        Number of quantized data pages processed.
    refinements:
        Number of third-level exact look-ups performed.
    certain:
        Per-result exactness mask aligned with ``ids`` (``None`` unless
        the query degraded).  ``certain[i]`` is False when result ``i``
        carries a quantization interval instead of an exact distance.
    intervals:
        For each uncertain result id, the ``(mindist, maxdist)`` cell
        interval that provably contains its true distance; the reported
        ``distances`` entry is the conservative ``maxdist``.
    lost_pages:
        :class:`~repro.storage.runtime_faults.LostPage` records for
        second-level pages the query could not read at all -- any of
        their points could have been an answer (recall bound).
    degraded:
        True when any fallback fired (``certain``/``intervals``/
        ``lost_pages`` carry the details).
    """

    ids: np.ndarray
    distances: np.ndarray
    io: IOStats
    pages_read: int
    refinements: int
    certain: np.ndarray | None = None
    intervals: dict[int, tuple[float, float]] | None = None
    lost_pages: tuple = ()
    degraded: bool = False


@dataclass
class RangeResult:
    """Result of a range query (all points within a radius).

    The degraded-mode fields mirror :class:`NNResult`; an uncertain
    range result is a *possible* member (its cell interval overlaps the
    radius) reported at its conservative ``maxdist``, which may exceed
    the radius.
    """

    ids: np.ndarray
    distances: np.ndarray
    io: IOStats
    pages_read: int
    refinements: int
    certain: np.ndarray | None = None
    intervals: dict[int, tuple[float, float]] | None = None
    lost_pages: tuple = ()
    degraded: bool = False


class KBest:
    """Fixed-size max-heap tracking the current k best candidates.

    Shared by the single-query searches here and by the batch query
    engine in :mod:`repro.engine`.
    """

    def __init__(self, k: int):
        self.k = k
        self._heap: list[tuple[float, int]] = []  # (-dist, id)

    def bound(self) -> float:
        """Current pruning distance (inf until k candidates exist)."""
        if len(self._heap) < self.k:
            return np.inf
        return -self._heap[0][0]

    def offer(self, dist: float, point_id: int) -> None:
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, (-dist, point_id))
        elif dist < -self._heap[0][0]:
            heapq.heapreplace(self._heap, (-dist, point_id))

    def offer_many(self, dists: np.ndarray, ids: np.ndarray) -> None:
        """Offer a whole candidate array (same result as offer() in a
        loop, including first-offered-wins tie behavior).

        Candidates that provably cannot enter the heap are dropped in
        one vectorized pass before the (now tiny) sequential offers:
        with ``n > k`` offered distances, anything above the k-th
        smallest *of this array* loses to k strictly smaller offers
        (replacement is strict ``<``), and once the heap is full,
        anything at or above the current bound is dead on arrival --
        and stays dead, because the bound never increases.
        """
        dists = np.asarray(dists, dtype=np.float64)
        ids = np.asarray(ids)
        if dists.size == 0:
            return
        keep = None
        if dists.size > self.k:
            kth = np.partition(dists, self.k - 1)[self.k - 1]
            keep = dists <= kth
        bound = self.bound()
        if np.isfinite(bound):
            below = dists < bound
            keep = below if keep is None else keep & below
        if keep is not None:
            dists = dists[keep]
            ids = ids[keep]
        for dist, pid in zip(dists, ids):
            self.offer(float(dist), int(pid))

    def sorted_results(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain the heap into ``(ids, dists)`` ascending by
        ``(distance, id)`` -- one vectorized lexsort, no tuple rebuild."""
        if not self._heap:
            return np.empty(0, dtype=np.int64), np.empty(0)
        neg_dists, heap_ids = zip(*self._heap)
        dists = -np.asarray(neg_dists, dtype=np.float64)
        ids = np.asarray(heap_ids, dtype=np.int64)
        order = np.lexsort((ids, dists))
        return ids[order], dists[order]


def nearest_neighbors(
    tree: IQTree, query: np.ndarray, k: int = 1, scheduler: str = "optimized"
) -> NNResult:
    """Exact k-NN search on an IQ-tree.

    See the module docstring for the algorithm; ``scheduler`` selects the
    page-access strategy.  With a fault context attached
    (``tree.use_fault_tolerance()``), unreadable data degrades the
    result instead of aborting it; without one, any storage failure
    surfaces as :class:`~repro.exceptions.QueryDataError`.
    """
    checked_k(k, tree.n_points)
    if scheduler not in ("optimized", "standard"):
        raise SearchError(f"unknown scheduler: {scheduler!r}")
    tree._ensure_clean()
    query = checked_query(tree, query)
    query_id = next_query_id()
    try:
        if tree._flight_recorder is not None:
            from repro.obs.flight import observe_single

            return observe_single(
                tree._flight_recorder, tree, "nearest", query_id,
                lambda: _nearest_impl(tree, query, k, scheduler),
            )
        return _nearest_impl(tree, query, k, scheduler)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _nearest_impl(
    tree: IQTree, query: np.ndarray, k: int, scheduler: str
) -> NNResult:
    ctx = tree._fault_ctx
    io_before = io_snapshot(tree.disk)
    tree._charge_directory_scan()

    metric = tree.metric
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, metric
    )
    n_pages = tree.n_pages
    processed = np.zeros(n_pages, dtype=bool)
    best = KBest(k)
    exact = ExactStore(tree)
    pages_read = 0

    # Degraded-mode state; stays empty without faults.
    intervals: dict[int, tuple[float, float]] = {}
    lost_pages: list[LostPage] = []
    handles_by_page: dict[int, PageHandle] = {}
    quarantined_local: set[int] = (
        set(ctx.quarantine.local_indices(tree._quant_file))
        if ctx is not None
        else set()
    )

    def lose_page(page: int) -> None:
        """Record a second-level page as unreadable (partition lost)."""
        processed[page] = True
        lost_pages.append(
            LostPage(
                page=int(page),
                n_points=int(tree._counts[page]),
                mindist=float(page_mindists[page]),
                maxdist=float(
                    maxdist_to_boxes(
                        query,
                        tree._lowers[page : page + 1],
                        tree._uppers[page : page + 1],
                        metric,
                    )[0]
                ),
            )
        )
        ctx.lose_pages()

    tie = itertools.count()
    heap: list[tuple] = [
        (float(page_mindists[i]), next(tie), _PAGE, i, 0)
        for i in range(n_pages)
    ]
    heapq.heapify(heap)

    while heap and heap[0][0] <= best.bound():
        dist, _t, kind, page, local = heapq.heappop(heap)
        if kind == _POINT:
            _refine(
                tree, exact, query, page, local, best, intervals,
                handles_by_page,
            )
            continue
        if processed[page]:
            continue
        handles = _load_pages(
            tree, query, page, page_mindists, processed, best.bound(), k,
            scheduler, quarantined_local, lose_page,
        )
        for handle in handles:
            processed[handle.index] = True
            pages_read += 1
            if handle.codes is not None:
                handles_by_page[handle.index] = handle
            _process_page(tree, query, handle, best, heap, tie)

    ids, dists = best.sorted_results()
    result = NNResult(
        ids=ids,
        distances=dists,
        io=io_delta(io_before, io_snapshot(tree.disk)),
        pages_read=pages_read,
        refinements=exact.refinements,
        **degraded_fields(ids, intervals, lost_pages),
    )
    if REGISTRY.enabled:
        QUERY_SECONDS.observe(result.io.elapsed)
        _DRIFT.observe_query(
            tree,
            k,
            actual_pages=result.pages_read,
            actual_seconds=result.io.elapsed,
        )
    return result


def range_search(tree: IQTree, query: np.ndarray, radius: float) -> RangeResult:
    """All points within ``radius`` of ``query``.

    The candidate page set is known up front (every page whose MBR
    mindist is within the radius), so the pages are fetched with the
    optimal batched strategy of Section 2.  A point whose cell maxdist
    is within the radius is a certain answer but is still refined --
    returning an answer means producing its exact record; a point whose
    cell straddles the radius is refined to decide.
    """
    radius = float(checked_radius(radius))
    tree._ensure_clean()
    query = checked_query(tree, query)
    query_id = next_query_id()
    try:
        if tree._flight_recorder is not None:
            from repro.obs.flight import observe_single

            return observe_single(
                tree._flight_recorder, tree, "range", query_id,
                lambda: _range_impl(tree, query, radius),
            )
        return _range_impl(tree, query, radius)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _range_impl(tree: IQTree, query: np.ndarray, radius: float) -> RangeResult:
    """One-query run of the batch range pipeline.

    The candidate pages load through the batch loader
    (:class:`~repro.engine.decode.PageDecodeCache`), a one-query range
    shard plans (``plan_range_query``) and assembles (``_range_answer``)
    the answer.  Refinements are fetched through
    :class:`~repro.core.tree.ExactStore` in the plan's ``(page, local)``
    order, so a single query still pays one random read per record
    block.
    """
    # Function-local: repro.engine imports this module.
    from repro.engine.decode import PageDecodeCache
    from repro.engine.engine import apply_degraded_effects
    from repro.engine.kernels import (
        BatchTask,
        assemble_range_shard,
        plan_range_shard,
    )

    ctx = tree._fault_ctx
    io_before = io_snapshot(tree.disk)
    tree._charge_directory_scan()
    dmin = mindist_to_boxes(query, tree._lowers, tree._uppers, tree.metric)
    cand_mask = dmin <= radius
    cache = PageDecodeCache(tree)
    cache.load(np.flatnonzero(cand_mask))
    task = BatchTask(
        queries=query[None, :],
        k=None,
        radii=np.array([radius]),
        cand_mask=cand_mask[None, :],
        lost=frozenset(cache.lost_pages),
        metric=tree.metric,
        table=cache.page_table(),
        counts=tree._counts,
        dmin=dmin[None, :],
        dmax=None,
    )
    (plan,) = plan_range_shard(task, [0])
    exact = ExactStore(tree)
    points = {}
    for key in plan["refine"]:
        try:
            points[key] = exact.fetch(*key)
        except (ReadFaultError, IntegrityError) as exc:
            if not _absorbs(ctx, exc):
                raise
    (answer,) = apply_degraded_effects(
        ctx,
        assemble_range_shard(replace(task, plans=[plan], points=points), [0]),
    )
    result = RangeResult(
        ids=answer.ids,
        distances=answer.distances,
        io=io_delta(io_before, io_snapshot(tree.disk)),
        pages_read=cache.pages_fetched + cache.pages_cached,
        refinements=exact.refinements,
        certain=answer.certain,
        intervals=answer.intervals,
        lost_pages=answer.lost_pages,
        degraded=answer.degraded,
    )
    if REGISTRY.enabled:
        # The cost model predicts kNN queries only, so range queries
        # feed the latency histogram but not the drift monitor.
        QUERY_SECONDS.observe(result.io.elapsed)
    return result


def browse_by_distance(tree: IQTree, query: np.ndarray):
    """Incremental distance browsing (Hjaltason-Samet ranking).

    Yields ``(point_id, distance)`` pairs in ascending distance order,
    lazily: pages are loaded and points refined only as far as the
    consumer iterates, so taking the first k results does no more I/O
    than a k-NN query with an unknown k.  This is the natural API for
    "give me neighbors until I say stop" workloads; the paper's k-NN
    algorithm is the bounded special case.

    Uses the standard (one random read per pivot page) access strategy:
    speculative pre-reading needs a pruning bound, and an open-ended
    ranking has none.  Browsing has no degraded mode (an open-ended
    ranking cannot bound what a lost page would have contributed); any
    storage failure surfaces as
    :class:`~repro.exceptions.QueryDataError`.
    """
    query_id = next_query_id()
    try:
        yield from _browse_impl(tree, query)
    except StorageError as exc:
        raise_query_error(exc, tree, query_id)


def _browse_impl(tree: IQTree, query: np.ndarray):
    tree._ensure_clean()
    query = checked_query(tree, query)
    tree._charge_directory_scan()
    metric = tree.metric
    page_mindists = mindist_to_boxes(
        query, tree._lowers, tree._uppers, metric
    )
    exact = ExactStore(tree)
    tie = itertools.count()
    # Entry kinds: _PAGE (load + expand), _POINT (refine), _RESULT
    # (already-exact distance, ready to emit).
    result_kind = 2
    heap: list[tuple] = [
        (float(page_mindists[i]), next(tie), _PAGE, i, 0)
        for i in range(tree.n_pages)
    ]
    heapq.heapify(heap)
    while heap:
        dist, _t, kind, page, local = heapq.heappop(heap)
        if kind == result_kind:
            yield int(page), float(dist)  # page slot holds the id here
            continue
        if kind == _POINT:
            coords, pid = exact.fetch(page, local)
            true = metric.distance(query, coords)
            heapq.heappush(heap, (true, next(tie), result_kind, pid, 0))
            continue
        handle = tree._read_page(page)
        if handle.points is not None:
            dists = metric.distances(query, handle.points)
            for pid, true in zip(handle.ids, dists):
                heapq.heappush(
                    heap, (float(true), next(tie), result_kind, int(pid), 0)
                )
            continue
        quantizer = tree._codec_view(page, handle)
        lower_b = quantizer.cell_mindist(query, handle.codes, metric)
        for local_idx, lb in enumerate(lower_b):
            heapq.heappush(
                heap, (float(lb), next(tie), _POINT, page, local_idx)
            )


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _process_page(tree, query, handle: PageHandle, best, heap, tie) -> None:
    """Decode one page: exact pages update the result directly, coarser
    pages push their cells' box approximations into the priority list."""
    metric = tree.metric
    if handle.points is not None:
        dists = metric.distances(query, handle.points)
        best.offer_many(dists, handle.ids)
        return
    quantizer = tree._codec_view(handle.index, handle)
    lower_b = quantizer.cell_mindist(query, handle.codes, metric)
    bound = best.bound()
    for local in np.flatnonzero(lower_b <= bound):
        heapq.heappush(
            heap,
            (float(lower_b[local]), next(tie), _POINT, handle.index, int(local)),
        )


def _plan_window(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    forbidden: frozenset[int] = frozenset(),
) -> tuple[int, int, list[int]]:
    """Plan the cost-balance window around a pivot (Section 2.1).

    Builds the pending-page snapshot, evaluates access probabilities for
    file-order neighbors of the pivot, and extends the transfer while
    the cumulated cost balance stays favorable.  ``forbidden`` blocks
    (quarantined pages) stop the speculative scan.  Returns ``(first,
    last, to_process)``.
    """
    n_pages = tree.n_pages
    pending = ~processed
    if np.isfinite(bound):
        pending &= page_mindists <= bound
    pending[pivot] = True
    pending_idx = np.flatnonzero(pending)
    snapshot_of = np.full(n_pages, -1, dtype=np.int64)
    snapshot_of[pending_idx] = np.arange(pending_idx.size)
    view = PageView(
        lowers=tree._lowers[pending_idx],
        uppers=tree._uppers[pending_idx],
        counts=tree._counts[pending_idx].astype(np.float64),
        mindists=page_mindists[pending_idx],
    )

    def probability(block: int) -> float:
        snap = snapshot_of[block]
        if snap < 0:
            return 0.0
        return float(
            access_probabilities(
                query, view, np.array([snap]), metric=tree.metric, k=k
            )[0]
        )

    first, last = cost_balance_window(
        pivot, n_pages, probability, tree.disk.model, forbidden=forbidden
    )
    to_process = [
        j for j in range(first, last + 1) if not processed[j] and pending[j]
    ]
    return first, last, to_process


def _absorbs(ctx, exc: Exception) -> bool:
    """Whether a fault context degrades around ``exc`` instead of
    failing the query: it needs a context and a read fault at a known
    address."""
    return ctx is not None and fault_address(exc) is not None


def _guarded_read(tree: IQTree, read):
    """Run one read, under the fault context's retry policy if any."""
    ctx = tree._fault_ctx
    return read() if ctx is None else ctx.run(read, tree.disk)


def _load_pages(
    tree: IQTree,
    query: np.ndarray,
    pivot: int,
    page_mindists: np.ndarray,
    processed: np.ndarray,
    bound: float,
    k: int,
    scheduler: str,
    quarantined_local: set[int],
    lose_page,
) -> list[PageHandle]:
    """Load a pivot page -- under the optimized scheduler, with its
    cost-balance window (Section 2.1) -- as decoded handles.

    One path with or without a fault context.  The standard scheduler
    reads the pivot alone (served from the decoded-page cache when
    resident); the optimized scheduler serves a cached pivot without
    I/O, so no speculative window is planned around it, and otherwise
    plans the window and reads it in one sequential transfer.  Without
    a context a read fault propagates.  With one, quarantined pages
    stop the speculative scan, a window transfer that faults out its
    retries is re-read page by page (so a single dead block costs
    exactly one partition, not the whole window), unreadable pages are
    reported through ``lose_page``, and ``quarantined_local`` is kept
    in sync with the context's quarantine.
    """
    ctx = tree._fault_ctx
    if scheduler == "optimized":
        entry = tree._cached_handle(pivot)
        if entry is not None:
            return [entry.handle]
    if pivot in quarantined_local:
        lose_page(pivot)
        return []
    to_process = [pivot]
    if scheduler == "optimized":
        first, last, to_process = _plan_window(
            tree, query, pivot, page_mindists, processed, bound, k,
            forbidden=frozenset(quarantined_local),
        )
        try:
            payloads = _guarded_read(
                tree,
                lambda: tree._quant_file.read_run(
                    first, last - first + 1, wanted=len(to_process)
                ),
            )
            return [
                tree._decode_page_payload(j, payloads[j - first])
                for j in to_process
            ]
        except (ReadFaultError, IntegrityError) as exc:
            if not _absorbs(ctx, exc):
                raise
            quarantined_local.update(
                ctx.quarantine.local_indices(tree._quant_file)
            )
    handles: list[PageHandle] = []
    for j in to_process:
        if j in quarantined_local:
            lose_page(j)
            continue
        try:
            handles.append(_guarded_read(tree, lambda j=j: tree._read_page(j)))
        except (ReadFaultError, IntegrityError) as exc:
            if not _absorbs(ctx, exc):
                raise
            quarantined_local.update(
                ctx.quarantine.local_indices(tree._quant_file)
            )
            lose_page(j)
    return handles


def _refine(
    tree: IQTree,
    exact: ExactStore,
    query: np.ndarray,
    page: int,
    local: int,
    best: "KBest",
    intervals: dict[int, tuple[float, float]],
    handles_by_page: dict[int, PageHandle],
) -> None:
    """Refine one point: offer its exact distance to ``best``.

    When the exact record is unreadable and the fault context absorbs
    the fault, the point is offered at its cell *maxdist* -- a sound
    upper bound on the true distance, so KBest pruning stays
    conservative -- and the full ``[mindist, maxdist]`` interval, which
    provably contains the exact distance (grid-cell containment, paper
    Section 3.2), is recorded.
    """
    metric = tree.metric
    try:
        coords, pid = exact.fetch(page, local)
    except (ReadFaultError, IntegrityError) as exc:
        ctx = tree._fault_ctx
        if not _absorbs(ctx, exc):
            raise
        handle = handles_by_page[page]
        boxes = tree._codec_view(page, handle).cell_bounds(handle.codes)
        lo, hi = cell_interval(query, boxes, local, metric)
        pid = int(tree._part_ids[page][local])
        best.offer(hi, pid)
        intervals[pid] = (lo, hi)
        ctx.degrade()
        return
    best.offer(metric.distance(query, coords), pid)


def certain_mask(
    ids: np.ndarray, intervals: dict[int, tuple[float, float]]
) -> np.ndarray:
    """Exactness mask aligned with ``ids``: False where the id carries
    a quantization interval.  One vectorized membership test instead of
    a per-result Python dict probe."""
    if not intervals:
        return np.ones(ids.size, dtype=bool)
    uncertain = np.fromiter(
        intervals.keys(), dtype=np.int64, count=len(intervals)
    )
    return ~np.isin(ids, uncertain)


def cell_interval(
    query: np.ndarray, boxes: tuple, local: int, metric
) -> tuple[float, float]:
    """The ``(mindist, maxdist)`` cell interval of one point of a page.

    ``boxes`` is the page's per-point ``(lowers, uppers)`` cell bounds.
    The interval provably contains the exact distance (grid-cell
    containment, paper Section 3.2), so a point whose exact record is
    unreadable is reported with it, ranked at the sound ``maxdist``.
    Every degraded path -- single-query kNN and range, both batch
    assemblers -- computes its fallbacks here.
    """
    lowers = boxes[0][local : local + 1]
    uppers = boxes[1][local : local + 1]
    return (
        float(mindist_to_boxes(query, lowers, uppers, metric)[0]),
        float(maxdist_to_boxes(query, lowers, uppers, metric)[0]),
    )


def degraded_fields(
    ids: np.ndarray,
    intervals: dict[int, tuple[float, float]],
    lost_pages,
    degraded: bool = False,
) -> dict:
    """The ``certain`` / ``intervals`` / ``lost_pages`` / ``degraded``
    fields of a result, as keyword arguments.

    A result degrades when any fallback fired -- a cell interval, a
    lost page, or a caller-known cause such as a dead shard.  Only the
    intervals of ids that made it into ``ids`` are reported, in result
    order.
    """
    lost_pages = tuple(lost_pages)
    degraded = bool(degraded or intervals or lost_pages)
    certain = None
    result_intervals = None
    if degraded:
        certain = certain_mask(ids, intervals)
        result_intervals = {
            pid: intervals[pid] for pid in ids.tolist() if pid in intervals
        }
    return {
        "certain": certain,
        "intervals": result_intervals,
        "lost_pages": lost_pages,
        "degraded": degraded,
    }


def checked_query(tree: IQTree, query) -> np.ndarray:
    """Validate a query point: right shape, finite coordinates."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (tree.dim,):
        raise SearchError(
            f"query must have shape ({tree.dim},), got {query.shape}"
        )
    if not np.all(np.isfinite(query)):
        raise SearchError("query coordinates must be finite")
    return query


def checked_queries(tree: IQTree, queries) -> np.ndarray:
    """Validate a batch of query points, shape ``(q, d)``."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != tree.dim:
        raise SearchError(
            f"queries must have shape (q, {tree.dim}), "
            f"got {queries.shape}"
        )
    if not np.all(np.isfinite(queries)):
        raise SearchError("query coordinates must be finite")
    return queries


def checked_radius(radius, shape=()) -> np.ndarray:
    """Validate search radii -- non-negative and finite -- broadcast to
    ``shape`` (a 0-d array for one query, ``(q,)`` for a batch)."""
    radii = np.array(
        np.broadcast_to(np.asarray(radius, dtype=np.float64), shape)
    )
    if np.any(radii < 0) or not np.all(np.isfinite(radii)):
        raise SearchError("radius must be non-negative and finite")
    return radii


def checked_k(k: int, n_points: int) -> int:
    """Validate a neighbor count: at least 1, at most ``n_points``."""
    if k < 1:
        raise SearchError("k must be at least 1")
    if k > n_points:
        raise SearchError(f"k={k} exceeds the {n_points} stored points")
    return k
