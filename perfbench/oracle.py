"""Brute-force kNN oracle over the stored float32 points.

The benchmark tracks the live point set itself (ids handed out by
inserts, ids removed by deletes) and checks every answer against an
exhaustive scan of it, outside the timed region.  The check is
tie-aware at the k-th distance: any id whose true distance ties the
k-th smallest is an acceptable answer, so it compares distances, not
id lists.
"""

from __future__ import annotations

import numpy as np

#: relative / absolute slack for comparing float64 distances computed
#: in a different summation order than the program's
RTOL = 1e-12
ATOL = 1e-15


def canonical(points) -> np.ndarray:
    """Round to float32 precision, the precision the index stores."""
    return np.asarray(points, dtype=np.float32).astype(np.float64)


class LiveSet:
    """The points the index should hold: coordinates by id + liveness."""

    def __init__(self, base: np.ndarray):
        base = canonical(base)
        self._coords = base.copy()
        self._live = np.ones(base.shape[0], dtype=bool)
        self._n = base.shape[0]
        #: live ids in no particular order (random deletes pick from it)
        self._ids = list(range(self._n))
        self._slot = {i: i for i in range(self._n)}

    @property
    def n_live(self) -> int:
        return len(self._ids)

    @property
    def next_id(self) -> int:
        return self._n

    def add(self, point_id: int, point) -> None:
        if point_id >= self._coords.shape[0]:
            grow = max(point_id + 1, 2 * self._coords.shape[0])
            coords = np.zeros((grow, self._coords.shape[1]))
            coords[: self._coords.shape[0]] = self._coords
            live = np.zeros(grow, dtype=bool)
            live[: self._live.shape[0]] = self._live
            self._coords, self._live = coords, live
        self._coords[point_id] = canonical(point)
        self._live[point_id] = True
        self._n = max(self._n, point_id + 1)
        self._slot[point_id] = len(self._ids)
        self._ids.append(point_id)

    def remove(self, point_id: int) -> None:
        slot = self._slot.pop(point_id)
        last = self._ids.pop()
        if last != point_id:
            self._ids[slot] = last
            self._slot[last] = slot
        self._live[point_id] = False

    def pick(self, rng: np.random.Generator) -> int:
        """A uniformly random live id."""
        return self._ids[int(rng.integers(len(self._ids)))]

    def is_live(self, ids) -> np.ndarray:
        return self._live[np.asarray(ids, dtype=np.int64)]

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self._live[: self._n])

    def dead_ids(self) -> np.ndarray:
        return np.flatnonzero(~self._live[: self._n])

    def coords(self, ids) -> np.ndarray:
        return self._coords[np.asarray(ids, dtype=np.int64)]

    def distances(self, query, ids=None) -> np.ndarray:
        """Exact distances to ``ids`` (default: every slot, dead = inf)."""
        if ids is not None:
            return np.sqrt(np.sum(np.square(self.coords(ids) - query), axis=-1))
        d = np.sqrt(np.sum(np.square(self._coords[: self._n] - query), axis=-1))
        d[~self._live[: self._n]] = np.inf
        return d

    def kth_distances(self, query, k: int) -> np.ndarray:
        """The k smallest true distances, ascending."""
        d = self.distances(query)
        return np.sort(np.partition(d, k - 1)[:k])


def check_knn(live: LiveSet, query, k: int, ids, dists, truth=None) -> bool:
    """Whether ``(ids, dists)`` is a correct k-NN answer.

    ``truth`` is the precomputed ascending k smallest true distances
    (computed from ``live`` when omitted).  The answer must hold k
    distinct live ids, report each id's true distance, and its sorted
    distances must equal the true k smallest.
    """
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    if ids.shape != (k,) or dists.shape != (k,):
        return False
    if np.unique(ids).size != k or ids.min() < 0 or ids.max() >= live.next_id:
        return False
    if not live.is_live(ids).all():
        return False
    if np.any(np.diff(dists) < 0):
        return False
    if not np.allclose(live.distances(query, ids), dists, rtol=RTOL, atol=ATOL):
        return False
    if truth is None:
        truth = live.kth_distances(query, k)
    return bool(np.allclose(dists, truth, rtol=RTOL, atol=ATOL))
