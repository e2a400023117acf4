"""Pure, picklable per-query kernels of the batch query engine.

The engine's batch algorithms split into coordinator phases (simulated
I/O, shared-state side effects) and per-query phases (candidate
bounding, result assembly) that are pure numpy over read-only inputs.
This module holds the per-query phases as module-level functions whose
inputs are plain data -- query rows, candidate masks, decoded code
matrices, cell-bound boxes, scalar parameters -- with no ``IQTree``,
``BlockFile``, or cache object anywhere in the hot path.  That makes
them shippable to *worker processes* (everything here pickles), which
is what lets ``QueryEngine(workers=N)`` scale on real cores instead of
serializing on the GIL.

Worker processes and the inline ``workers=1`` path run exactly these
functions, so parallel and serial execution are bit-identical by
construction; the equivalence tests in ``tests/test_engine_parallel.py``
pin it.

One :class:`BatchTask` carries a batch through both phases; kNN and
range batches differ only in its ``k`` / ``radii`` field.  Large arrays
travel by reference when the engine freezes the task into a
:class:`~repro.engine.shm.SharedArena`: :meth:`BatchTask.freeze` swaps
every array field (and every array of its :class:`PageTable`) for an
:class:`~repro.engine.shm.ArrayRef`, and each kernel first calls
:meth:`BatchTask.resolve` to materialize zero-copy views.  The four
entry points (plan / assemble x kNN / range) run one per-query shard
loop; a lost record's cell interval comes from
:func:`~repro.core.search.cell_interval`, the same function the
single-query searches fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.search import KBest, cell_interval, degraded_fields
from repro.engine.shm import ArrayRef, resolve
from repro.engine.stats import QueryStats
from repro.geometry.mbr import maxdist_to_boxes, mindist_to_boxes
from repro.obs.tracing import SpanRecord
from repro.storage.runtime_faults import LostPage

__all__ = [
    "BatchQueryResult",
    "BatchTask",
    "PageTable",
    "plan_knn_shard",
    "plan_range_shard",
    "assemble_knn_shard",
    "assemble_range_shard",
]


@dataclass
class BatchQueryResult:
    """Answer to one query of a batch.

    ``ids``/``distances`` are sorted ascending by distance, exactly as
    the single-query search APIs return them; ``stats`` records the
    logical work this query caused.  The degraded-mode fields mirror
    :class:`~repro.core.search.NNResult`: ``certain`` flags which
    results are exact, ``intervals`` carries the ``(mindist, maxdist)``
    bound of each uncertain result, and ``lost_pages`` reports
    second-level pages this query could not read at all.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats
    certain: np.ndarray | None = None
    intervals: dict[int, tuple[float, float]] | None = None
    lost_pages: tuple = ()
    degraded: bool = False


def _map_arrays(value, fn):
    """``fn`` over an array or ref, over each one in a tuple, or over
    every array of a :class:`PageTable`; anything else passes through."""
    if isinstance(value, (np.ndarray, ArrayRef)):
        return fn(value)
    if isinstance(value, tuple):
        return tuple(_map_arrays(v, fn) for v in value)
    if isinstance(value, PageTable):
        return PageTable(
            **{
                f.name: {
                    page: _map_arrays(entry, fn)
                    for page, entry in getattr(value, f.name).items()
                }
                for f in fields(value)
            }
        )
    return value


@dataclass
class PageTable:
    """Decoded views of a batch's candidate pages, as plain arrays.

    One entry per loaded page: ``exact`` maps pages stored at full
    resolution to their ``(points, ids)`` arrays, ``bounds`` maps
    quantized pages to their per-point cell ``(lower, upper)`` boxes,
    and ``part_ids`` carries the point ids of quantized pages (needed
    only for interval fallbacks of unreadable records).  Built by the
    engine from the per-batch decode cache *after* all simulated I/O
    has been charged; kernels only ever read it.
    """

    exact: dict[int, tuple]
    bounds: dict[int, tuple]
    part_ids: dict[int, object]


@dataclass
class BatchTask:
    """Inputs of a batch's per-query phases, kNN or range.

    Exactly one of ``k`` (kNN) and ``radii`` (range) is set.  The plan
    phase reads the candidate masks; the assemble phase runs on a copy
    that also carries the plan phase's output and the fetched records.
    """

    queries: object  # (q, d) array or ArrayRef
    k: int | None  # kNN: neighbors per query
    radii: object  # range: (q,) array or ArrayRef
    cand_mask: object  # (q, pages) bool array or ArrayRef
    lost: frozenset  # pages the coordinator could not read
    metric: object  # repro.geometry.metrics.Metric (stateless)
    table: PageTable
    counts: object  # per-page point counts (LostPage reporting)
    dmin: object  # (q, pages) directory mindist matrix
    dmax: object  # (q, pages) directory maxdist matrix (kNN only)
    trace: bool = False  # emit per-query SpanRecords
    plans: list | None = None  # phase-1 output, one dict per query
    points: dict | None = None  # (page, local) -> (coords, id); fetched

    def _map_arrays(self, fn) -> "BatchTask":
        return replace(
            self,
            **{
                f.name: _map_arrays(getattr(self, f.name), fn)
                for f in fields(self)
            },
        )

    def freeze(self, arena) -> "BatchTask":
        """A copy whose arrays live in ``arena`` (they ship as refs).

        Only array fields and the page table's arrays move; ``plans``
        and ``points`` are containers and travel inline.
        """
        return self._map_arrays(
            lambda a: arena.put(a) if isinstance(a, np.ndarray) else a
        )

    def resolve(self) -> "BatchTask":
        """A copy with every :class:`ArrayRef` materialized as a view."""
        return self._map_arrays(resolve)


# ----------------------------------------------------------------------
# Shared pure helpers
# ----------------------------------------------------------------------
def _candidates(cand_row, lost_set):
    """Split one query's candidate pages into (readable, lost).

    Matches the engine's historical branch structure exactly: with no
    lost pages the flatnonzero array passes through untouched.
    """
    cand = np.flatnonzero(cand_row)
    if lost_set:
        lost = [p for p in cand.tolist() if p in lost_set]
        cand = np.array(
            [p for p in cand.tolist() if p not in lost_set],
            dtype=np.int64,
        )
    else:
        lost = []
    return cand, lost


def plan_knn_query(task: BatchTask, i: int, pages) -> dict:
    """Bound every candidate point of query ``i``; pick refinements."""
    query, k, table, metric = task.queries[i], task.k, task.table, task.metric
    exact_dists: list[np.ndarray] = []
    exact_ids: list[np.ndarray] = []
    quant_lowers: list[np.ndarray] = []
    quant_keys: list[tuple[int, int]] = []
    uppers: list[np.ndarray] = []
    candidate_points = 0
    for page in pages.tolist():
        exact = table.exact.get(page)
        if exact is not None:
            points, ids = exact
            dists = metric.distances(query, points)
            candidate_points += dists.size
            exact_dists.append(dists)
            exact_ids.append(ids)
            uppers.append(dists)
            continue
        lo, up = table.bounds[page]
        lower_b = mindist_to_boxes(query, lo, up, metric)
        upper_b = maxdist_to_boxes(query, lo, up, metric)
        candidate_points += lower_b.size
        quant_lowers.append(lower_b)
        quant_keys.extend(
            (page, local) for local in range(lower_b.size)
        )
        uppers.append(upper_b)
    all_uppers = (
        np.concatenate(uppers) if uppers else np.empty(0)
    )
    if all_uppers.size >= k:
        tau = np.partition(all_uppers, k - 1)[k - 1]
    else:
        tau = np.inf
    refine: list[tuple[int, int]] = []
    if quant_lowers:
        lowers_cat = np.concatenate(quant_lowers)
        for idx in np.flatnonzero(lowers_cat <= tau).tolist():
            refine.append(quant_keys[idx])
    return {
        "exact_dists": (
            np.concatenate(exact_dists) if exact_dists else np.empty(0)
        ),
        "exact_ids": (
            np.concatenate(exact_ids)
            if exact_ids
            else np.empty(0, dtype=np.int64)
        ),
        "refine": refine,
        "candidate_points": candidate_points,
    }


def plan_range_query(task: BatchTask, i: int, pages) -> dict:
    """Classify query ``i``'s candidate points for a range search."""
    query, table, metric = task.queries[i], task.table, task.metric
    radius = float(task.radii[i])
    exact_ids: list[np.ndarray] = []
    exact_dists: list[np.ndarray] = []
    refine: list[tuple[int, int]] = []
    candidate_points = 0
    for page in pages.tolist():
        exact = table.exact.get(page)
        if exact is not None:
            points, ids = exact
            dists = metric.distances(query, points)
            candidate_points += dists.size
            inside = dists <= radius
            exact_ids.append(ids[inside].astype(np.int64, copy=False))
            exact_dists.append(
                dists[inside].astype(np.float64, copy=False)
            )
            continue
        lo, up = table.bounds[page]
        lower_b = mindist_to_boxes(query, lo, up, metric)
        candidate_points += lower_b.size
        refine.extend(
            (page, int(local))
            for local in np.flatnonzero(lower_b <= radius)
        )
    return {
        "exact_ids": (
            np.concatenate(exact_ids)
            if exact_ids
            else np.empty(0, dtype=np.int64)
        ),
        "exact_dists": (
            np.concatenate(exact_dists)
            if exact_dists
            else np.empty(0)
        ),
        "refine": refine,
        "candidate_points": candidate_points,
    }


def refined_distances(query, refine, points, metric) -> dict:
    """Exact distances of one query's available refinements.

    One vectorized ``metric.distances`` call over the fetched records
    (bitwise identical to per-point ``metric.distance``: the reduction
    runs over the same axis in the same order).
    """
    avail = [key for key in refine if key in points]
    if not avail:
        return {}
    coords = np.array([points[key][0] for key in avail])
    dists = metric.distances(query, coords)
    return {key: float(d) for key, d in zip(avail, dists)}


def _refine(task: BatchTask, i: int, plan: dict):
    """Query ``i``'s refinements as ``(distance, id, exact)`` triples.

    A fetched record contributes its exact distance; an unreadable one
    its cell interval's sound ``maxdist``, with the interval recorded
    in the returned ``intervals`` map.  Pure: fault-context counters
    and registry instruments are applied later, on the coordinator, in
    query order.
    """
    query = task.queries[i]
    dist_of = refined_distances(
        query, plan["refine"], task.points, task.metric
    )
    refined = []
    intervals: dict[int, tuple[float, float]] = {}
    for key in plan["refine"]:
        if key in dist_of:
            refined.append((dist_of[key], task.points[key][1], True))
            continue
        page, local = key
        lo, hi = cell_interval(
            query, task.table.bounds[page], local, task.metric
        )
        pid = int(task.table.part_ids[page][local])
        intervals[pid] = (lo, hi)
        refined.append((hi, pid, False))
    return refined, intervals


def _knn_answer(task: BatchTask, i: int, plan: dict, refined):
    best = KBest(task.k)
    best.offer_many(plan["exact_dists"], plan["exact_ids"])
    for dist, pid, _exact in refined:
        best.offer(dist, pid)
    return best.sorted_results()


def _range_answer(task: BatchTask, i: int, plan: dict, refined):
    # An unreadable record whose cell overlaps the ball is included
    # conservatively at its cell maxdist, flagged uncertain.
    radius = float(task.radii[i])
    kept = [(d, pid) for d, pid, exact in refined if not exact or d <= radius]
    found_ids = np.concatenate(
        [plan["exact_ids"], np.array([p for _d, p in kept], dtype=np.int64)]
    )
    found_dists = np.concatenate(
        [
            plan["exact_dists"],
            np.array([d for d, _p in kept], dtype=np.float64),
        ]
    )
    order = np.argsort(found_dists, kind="stable")
    return found_ids[order], found_dists[order]


def _plan(task: BatchTask, i: int, plan_query) -> tuple[dict, dict]:
    """Phase 1 for one query: its plan dict plus span attributes."""
    cand, lost = _candidates(task.cand_mask[i], task.lost)
    plan = plan_query(task, i, cand)
    plan["lost"] = lost
    plan["candidate_pages"] = int(np.count_nonzero(task.cand_mask[i]))
    return plan, {
        "pages": plan["candidate_pages"],
        "points": plan["candidate_points"],
        "refine": len(plan["refine"]),
        "lost": len(lost),
    }


def _assemble(task: BatchTask, i: int, answer) -> tuple[dict, dict]:
    """Phase 3 for one query: its result plus span attributes.

    The output carries the count of interval fallbacks computed; the
    coordinator applies the degraded-mode side effects in query order.
    """
    plan = task.plans[i]
    refined, intervals = _refine(task, i, plan)
    ids, dists = answer(task, i, plan, refined)
    # A range query's lost page may hold any number of in-range
    # points: its contribution cannot be bounded (no maxdist matrix).
    lost_records = tuple(
        LostPage(
            page=int(p),
            n_points=int(task.counts[p]),
            mindist=float(task.dmin[i, p]),
            maxdist=(
                float("inf") if task.dmax is None else float(task.dmax[i, p])
            ),
        )
        for p in plan["lost"]
    )
    result = BatchQueryResult(
        ids=ids,
        distances=dists,
        stats=QueryStats(
            candidate_pages=plan["candidate_pages"],
            candidate_points=plan["candidate_points"],
            refinements=len(plan["refine"]),
        ),
        **degraded_fields(ids, intervals, lost_records),
    )
    return {"result": result, "n_intervals": len(intervals)}, {
        "refine": len(plan["refine"]),
        "intervals": len(intervals),
        "lost": len(lost_records),
    }


# ----------------------------------------------------------------------
# Shard entry points (what the worker pool runs)
# ----------------------------------------------------------------------
#
# Every entry point returns one dict per query.  When ``task.trace`` is
# set, each also carries one picklable
# :class:`~repro.obs.tracing.SpanRecord` under ``"spans"``: a name and
# attributes with zero simulated I/O, since kernels charge nothing.
# The coordinator pops them off and stitches them into the ambient
# tracer in query order.

def _per_query(task: BatchTask, indices, span, phase, fn) -> list:
    """Run ``phase(task, i, fn)`` for each query index of one shard."""
    task = task.resolve()
    out = []
    for i in indices:
        item, attrs = phase(task, i, fn)
        if task.trace:
            attrs["query"] = int(i)
            item["spans"] = (SpanRecord(span, tuple(sorted(attrs.items()))),)
        out.append(item)
    return out


def plan_knn_shard(task: BatchTask, indices) -> list[dict]:
    """Phase 1 (pure): per-query point-level bounds + refinement picks."""
    return _per_query(task, indices, "plan-query", _plan, plan_knn_query)


def plan_range_shard(task: BatchTask, indices) -> list[dict]:
    """Phase 1 (pure): per-query candidate classification."""
    return _per_query(task, indices, "plan-query", _plan, plan_range_query)


def assemble_knn_shard(task: BatchTask, indices) -> list[dict]:
    """Phase 3 (pure): per-query kNN result assembly."""
    return _per_query(
        task, indices, "assemble-query", _assemble, _knn_answer
    )


def assemble_range_shard(task: BatchTask, indices) -> list[dict]:
    """Phase 3 (pure): per-query range result assembly."""
    return _per_query(
        task, indices, "assemble-query", _assemble, _range_answer
    )
