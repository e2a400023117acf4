"""Deterministic worker-pool execution for the batch query engine.

:class:`WorkerPool` shards a batch's per-query work across workers.  The
engine keeps every *simulated-I/O charge* on its coordinator thread (the
directory scan, the batched page fetch, the batched third-level fetch),
so workers only run pure CPU work -- the per-query kernels of
:mod:`repro.engine.kernels` over read-only precomputed state.  That
division of labor is what makes the parallel engine *deterministic*:
the simulated-cost ledger and every observability counter come out
bit-identical for any worker count, which the equivalence tests pin.

There is one executor.  A map over one shard (``workers=1``, or a
single item) runs inline on the calling thread; anything wider runs on
a :class:`~concurrent.futures.ProcessPoolExecutor` (``fork`` start
method when the platform offers it).  The ``(fn, task)`` payload is
pickled once per map on the coordinator; large arrays travel zero-copy
through a :class:`~repro.engine.shm.SharedArena` when the engine froze
them (:meth:`WorkerPool.ships` tells it when).  The mapped function
must therefore be picklable -- a module-level kernel over plain data.
If the platform cannot start a process pool, every map runs inline
instead: the kernels are pure, so the results are the same.

Sharding is contiguous and balanced: ``q`` items over ``w`` workers
become at most ``w`` runs of ``ceil``/``floor`` sizes in original order,
and the shard results are concatenated in shard order.  When several
shards fail, the first shard's exception (in shard order) is raised and
every other shard's failure is attached to it as a ``__notes__`` entry
-- concurrent failures never vanish.

Tracing rides the same channel: when a ``trace_query`` block is
active, the engine flags its task objects and the kernels return
compact picklable :class:`~repro.obs.tracing.SpanRecord` lists *by
value* inside their ordinary results -- the pool itself carries no
tracing state, no ambient context crosses the process boundary, and
the coordinator stitches the records into the live span tree in query
order after the barrier.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor, wait
from typing import Callable, Sequence, TypeVar

from repro.exceptions import SearchError

__all__ = ["WorkerPool"]

T = TypeVar("T")


def _process_shard(blob: bytes, shard) -> list:
    """Worker-process entry point: run one shard of a pre-pickled task.

    The ``(fn, task)`` payload is pickled *once* on the coordinator and
    shipped as bytes, so submitting W shards costs one serialization,
    not W.
    """
    fn, task = pickle.loads(blob)
    return fn(task, shard)


class WorkerPool:
    """A fixed-size worker pool with deterministic sharded mapping.

    Parameters
    ----------
    workers:
        Number of workers (at least 1).  With one worker every shard
        runs inline on the calling thread -- no executor, no process
        hop -- so ``workers=1`` is exactly the serial engine.

    The process pool is created lazily on first parallel use and reused
    across batches; :meth:`close` (or use as a context manager) shuts it
    down.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise SearchError("workers must be at least 1")
        self.workers = int(workers)
        self._executor: ProcessPoolExecutor | None = None
        #: set once the platform refused to start a process pool
        self._inline_only = False

    # ------------------------------------------------------------------
    # Sharded mapping
    # ------------------------------------------------------------------
    def shard(self, items: Sequence[T]) -> list[Sequence[T]]:
        """Split ``items`` into at most ``workers`` contiguous runs.

        Sizes differ by at most one and earlier shards get the extra
        element, so the split is a pure function of ``(len(items),
        workers)`` -- the same inputs always produce the same shards.
        """
        n = len(items)
        n_shards = min(self.workers, n)
        if n_shards <= 1:
            return [items] if n else []
        base, extra = divmod(n, n_shards)
        shards = []
        start = 0
        for s in range(n_shards):
            size = base + (1 if s < extra else 0)
            shards.append(items[start : start + size])
            start += size
        return shards

    def ships(self, n_items: int) -> bool:
        """Whether a map over ``n_items`` crosses a process boundary."""
        return (
            min(self.workers, n_items) > 1
            and self._ensure_executor() is not None
        )

    def map_sharded(self, fn: Callable, items: Sequence[T], task) -> list:
        """Run ``fn(task, shard)`` over contiguous shards of ``items``.

        ``task`` is a read-only payload shared by every shard (pickled
        exactly once when the shards go to worker processes).  Returns
        the concatenation of every shard's returned list *in shard
        order*, i.e. original item order.  Worker exceptions propagate
        after all shards have settled: the first failing shard's
        exception is raised, with every other shard's failure recorded
        on it via ``add_note`` -- no shard failure is silently dropped.
        """
        shards = self.shard(list(items))
        if not self.ships(len(shards)):
            outputs = self._run_inline(fn, task, shards)
        else:
            try:
                blob = pickle.dumps(
                    (fn, task), protocol=pickle.HIGHEST_PROTOCOL
                )
            except Exception as exc:
                raise SearchError(
                    "worker processes need a picklable worker function "
                    "and task (module-level kernels over plain arrays); "
                    f"got: {exc}"
                ) from exc
            outputs = self._settle(
                [
                    self._executor.submit(_process_shard, blob, s)
                    for s in shards
                ]
            )
        return [r for out in outputs for r in out]

    @staticmethod
    def _run_inline(fn: Callable, task, shards) -> list:
        """Every shard on the calling thread, failures aggregated like
        :meth:`_settle` -- a later shard still runs after an earlier
        one raised, so the inline fallback reports the same failures a
        process pool would."""
        outputs, errors = [], []
        for i, s in enumerate(shards):
            try:
                outputs.append(fn(task, s))
            except Exception as exc:
                errors.append((i, exc))
        WorkerPool._raise_first(errors)
        return outputs

    @staticmethod
    def _settle(futures) -> list:
        """All shard results, aggregating every failure onto the first.

        ``wait`` guarantees no shard is abandoned mid-flight.
        """
        wait(futures)
        WorkerPool._raise_first(
            [
                (i, f.exception())
                for i, f in enumerate(futures)
                if f.exception() is not None
            ]
        )
        return [f.result() for f in futures]

    @staticmethod
    def _raise_first(errors: list) -> None:
        """Raise the first ``(shard, exception)`` failure in shard order,
        with the others attached as notes so concurrent failures stay
        diagnosable."""
        if not errors:
            return
        _first, primary = errors[0]
        for i, exc in errors[1:]:
            if exc is primary:
                # A broken pool settles every future with the same
                # exception instance; one report is enough.
                continue
            primary.add_note(
                f"[worker-pool] shard {i} also failed: "
                f"{type(exc).__name__}: {exc}"
            )
        raise primary

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        """The process pool, or None when the platform cannot start one."""
        if self._executor is None and not self._inline_only:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            except (OSError, ValueError, ImportError):
                # No process support (exotic sandbox): run inline.
                self._inline_only = True
        return self._executor

    def close(self) -> None:
        """Shut the executor down (idempotent; pool stays usable --
        the next parallel call recreates the workers)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        # Best-effort: engines are not always closed explicitly, and a
        # leaked process pool would otherwise idle until interpreter
        # exit.  Never raise from a finalizer.
        try:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "live" if self._executor is not None else "idle"
        return f"WorkerPool(workers={self.workers}, {state})"
