"""The benchmark's three workloads, driven through the public API only.

* ``knn-single`` -- uniform data, ``codec="grid"``, one
  ``tree.nearest(q, k=10)`` at a time, with a ``DecodedPageCache``
  budgeted at a quarter of the decoded index so the working set exceeds
  the cache.  Almost every page is read, so ``core.search`` does most
  of the work; the batch engine is not used.
* ``knn-batch`` -- Gaussian clusters (160 tight clusters, the regime
  where ``codec="auto"`` chooses PQ pages and runs the merge pass),
  batches of 64 through ``QueryEngine(workers=min(2, nproc),
  backend="process")`` with a decoded-page cache that holds the whole
  index.  Queries share pages and warmed batches are served from the
  cache; ``core.search`` does no work.
* ``write-mix`` -- the same clustered data, ``codec="grid"``, wrapped in
  a ``DurableTree`` (fsync on, ``group_commit=1``: every journaled write
  is fsync'd before it is acknowledged).  Each round is a burst of
  journaled writes (4 inserts from the data distribution for every
  delete of a random live id), then single kNN queries at half the
  write count, then ``maybe_sweep()``; the tree is checkpointed every
  few rounds.

Each workload is one client in a closed loop.  Queries are held out
from the same distribution as the data, so they are not in the index.

Every workload also makes the same durability steps, spread evenly over
the measured pass so that their samples see the same host conditions
as the main loop: a checkpoint, a fixed tail of journaled writes, then
``close`` and ``DurableTree.open``, which replays that tail, and a check
of the reopened index.  On write-mix the steps act on the served tree
(a restart); the read workloads keep their index untouched and make the
steps on a second, durable copy of it, so no write runs on the index
their kNN loop reads.  The read workloads also make a few journaled
writes to that copy after every kNN call, so that their write samples
are spread over the whole pass like write-mix's.

The host's speed drifts in phases of seconds to minutes, so a single
call's latency says as much about the phase it ran in as about the
program.  Each workload therefore cycles a fixed pool of queries (of
batches on knn-batch), and the typical kNN latency is the median over
the pool of each member's mean over its repeats, which are spread over
the whole pass.  Writes are pooled the same way, by their slot in the
repeating write pattern (insert or delete, first after a kNN call or
not).

Every answer is checked against brute force outside the timed region;
a wrong answer or an exception counts as a failed operation and the run
goes on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import oracle

K = 10
#: 4 inserts for every delete
DELETE_EVERY = 5
#: Tail of the kNN latency per workload: (percentile, over what),
#: fixed so that a faster program (more samples) is still compared at
#: the same percentile.  "pool" takes it over the pool members' mean
#: latencies, like the p50: on knn-single p92 leaves ten of the 128
#: queries beyond it; knn-batch's pool has only 16 batches, and p75
#: leaves four.  On write-mix the first query of every round (1 in 20)
#: pays the re-layout after the write burst, a cost no pool member
#: keeps, so its tail is p98 over single calls, which sits among those
#: first queries.
KNN_TAIL = {
    "knn-single": (92.0, "pool"),
    "knn-batch": (75.0, "pool"),
    "write-mix": (98.0, "calls"),
}
#: Writes are pooled by slot, their index in the write pattern modulo
#: WRITE_SLOTS (on write-mix, their place in the burst); p75 over the
#: slots' mean latencies leaves ten slots beyond it.  These wall-time
#: latencies are printed but not gated: most of a write's wall time
#: waits on fsync, and on a shared virtual disk the fsync time of the
#: same run varied from 0.13 to 0.49 ms between consecutive runs.  The
#: gated write metric is the process CPU time per write (append and
#: apply), which the disk does not touch.
WRITE_SLOTS = 40
WRITE_TAIL = 75.0
#: journaled writes to the durable copy after every timed kNN call on
#: the read workloads (a few per cent of the pass's wall time)
SIDE_WRITES = {"knn-single": 2, "knn-batch": 20, "write-mix": 0}
#: traced runs do a fixed amount of work per pass: ops per --seconds
TRACE_OPS_PER_SECOND = {"knn-single": 4.0, "knn-batch": 0.5, "write-mix": 0.25}
FLUSH_POLICY = "fsync=True, group_commit=1"
WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Size:
    n: int
    dim: int
    query_pool: int
    #: distinct queries that knn-single cycles (write-mix cycles one
    #: fewer, so that the first query after each burst is not always
    #: the same few)
    pool: int
    insert_pool: int
    #: set-ups per untraced run; setup_s is their median
    builds: int
    batch: int
    #: journaled writes per write-mix round
    burst: int
    checkpoint_every: int
    #: durability steps per measured pass; recovery_s is their median
    steps: int
    #: journaled writes per durability step, replayed by its reopen
    tail_ops: int
    #: queries compared before close and after reopen, per step
    probes: int
    warmup: int


FULL = Size(
    n=20_000, dim=16, query_pool=1024, pool=128, insert_pool=4096, builds=3,
    batch=64, burst=40, checkpoint_every=5, steps=5, tail_ops=300,
    probes=2, warmup=2,
)
#: same code paths and checks at a size that finishes in seconds
SMALL = Size(
    n=2_000, dim=16, query_pool=128, pool=32, insert_pool=512, builds=1,
    batch=16, burst=10, checkpoint_every=2, steps=2, tail_ops=20,
    probes=2, warmup=1,
)

_CODEC = {"knn-single": "grid", "knn-batch": "auto", "write-mix": "grid"}


def cache_budget(workload: str, size: Size) -> int:
    """Decoded-page cache bytes: a quarter of the uint32 code matrices
    on knn-single, room for every page's codes and cell bounds on
    knn-batch (write-mix attaches no cache)."""
    coords = size.n * size.dim
    return coords if workload == "knn-single" else 64 * coords * 8


def make_data(workload: str, seed: int, size: Size):
    """``(data, queries, inserts)``: queries and inserts are held out
    from the same draw as the data."""
    from repro.datasets import gaussian_clusters, make_workload, uniform

    held = size.query_pool + size.insert_pool
    if workload == "knn-single":
        data, rest = make_workload(
            uniform, n=size.n, n_queries=held, seed=seed, dim=size.dim
        )
    else:
        data, rest = make_workload(
            gaussian_clusters, n=size.n, n_queries=held, seed=seed,
            dim=size.dim, n_clusters=max(size.n // 125, 8), spread=0.0005,
        )
    return data, rest[: size.query_pool], rest[size.query_pool :]


class NullTracer:
    """Stands in for :class:`perfbench.tracer.Tracer` in untraced runs."""

    _null = contextlib.nullcontext()

    def request(self, kind: str):
        return self._null


def timed(tracer, kind: str, fn, *args, **kwargs):
    """``(result or exception, seconds)`` of one public call."""
    with tracer.request(kind):
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation; the run goes on
            out = exc
        return out, time.perf_counter() - start


@dataclass
class Tally:
    """What one measured pass saw.

    ``wall``, ``queries`` and ``writes`` cover the main loop only (its
    sweeps and checkpoints included); the durability steps add write,
    recovery and space samples.
    """

    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    queries: int = 0
    writes: int = 0
    knn_lat: list = field(default_factory=list)
    #: pool member (query or batch) of every timed kNN call
    knn_ids: list = field(default_factory=list)
    write_lat: list = field(default_factory=list)
    #: write slot of every sampled write
    write_ids: list = field(default_factory=list)
    #: process CPU seconds of every sampled write
    write_cpu: list = field(default_factory=list)
    sim: list = field(default_factory=list)
    #: per kNN call: (seeks, blocks, overread, sim seconds, pages,
    #: refinements[, decoded pages reused])
    ledger: list = field(default_factory=list)
    #: per sweep: (dirty pages, requantized, restructured)
    sweeps: list = field(default_factory=list)
    checkpoint_bytes: list = field(default_factory=list)
    recovery: list = field(default_factory=list)
    replayed: list = field(default_factory=list)
    space_amp: list = field(default_factory=list)
    journal_share: list = field(default_factory=list)
    #: decoded-page cache (hits, misses) over the timed kNN calls
    cache: tuple = (0, 0)
    errors: list = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(what)


@dataclass
class Durable:
    """A durable index the benchmark writes to, and its oracle."""

    store: object
    live: oracle.LiveSet


class Workload:
    """One workload's state: data, index, oracle, and its passes."""

    def __init__(self, name: str, seed: int, size: Size, workdir: str):
        self.name = name
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.data, self.queries, self.inserts = make_data(name, seed, size)
        self.cache_budget = cache_budget(name, size)
        self.tree = None
        self.durable = None
        self._paths = 0

    def _path(self) -> str:
        self._paths += 1
        return os.path.join(self.workdir, f"index-{self._paths}.iqt")

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    def setup(self, tracer, builds: int) -> list:
        """Build (and on write-mix create the durable tree) ``builds``
        times; keeps the last.  Returns the set-up wall times."""
        from repro import IQTree
        from repro.storage.journal import DurableTree

        times = []
        for _ in range(builds):
            self.tree = self.durable = store = None
            gc.collect()
            with tracer.request("build"):
                start = time.perf_counter()
                tree = IQTree.build(self.data, codec=_CODEC[self.name])
                if self.name == "write-mix":
                    store = DurableTree.create(
                        tree, self._path(), fsync=True, group_commit=1
                    )
                times.append(time.perf_counter() - start)
            self.tree = tree
        self.live = oracle.LiveSet(self.data)
        if store is not None:
            self.durable = Durable(store, self.live)
            self.manager = tree.maintenance_manager()
        self.rng = np.random.default_rng([self.seed, 7])
        self._next_insert = 0
        self._side = 0
        self._truth: dict[int, np.ndarray] = {}
        return times

    def _durable_copy(self) -> Durable:
        """An independent durable copy of the read workloads' index."""
        from repro.storage.journal import DurableTree

        path = self._path()
        DurableTree.create(self.tree, path, fsync=True, group_commit=1).close()
        store = DurableTree.open(path, fsync=True, group_commit=1)
        return Durable(store, oracle.LiveSet(self.data))

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _check(self, tally: Tally, live, qi: int, ids, dists,
               static: bool) -> None:
        """Oracle check of one answer (outside the timed region).

        ``static`` answers come from an index that never changes, so
        their true distances are computed once per query.
        """
        query = self.queries[qi]
        truth = None
        if static:
            truth = self._truth.get(qi)
            if truth is None:
                truth = self._truth[qi] = live.kth_distances(query, K)
        if not oracle.check_knn(live, query, K, ids, dists, truth):
            tally.fail(f"wrong answer to query {qi}")

    def _nearest(self, tracer, tally: Tally, qi: int, timed_op: bool,
                 static: bool) -> None:
        res, seconds = timed(
            tracer, "nearest" if timed_op else "warmup", self.tree.nearest,
            self.queries[qi], k=K,
        )
        tally.attempted += 1
        if timed_op:
            tally.wall += seconds
            tally.queries += 1
            tally.knn_lat.append(seconds)
            tally.knn_ids.append(qi)
        if isinstance(res, Exception):
            tally.fail(f"nearest: {type(res).__name__}: {res}")
            return
        if timed_op:
            io = res.io
            tally.sim.append(io.elapsed)
            tally.ledger.append((
                io.seeks, io.blocks_read, io.blocks_overread, io.elapsed,
                res.pages_read, res.refinements,
            ))
        self._check(tally, self.live, qi, res.ids, res.distances, static)

    def _write(self, tracer, tally: Tally, durable: Durable, j: int,
               sample: bool = True) -> float:
        """One journaled write (every DELETE_EVERY-th a delete); returns
        its wall seconds.  ``sample`` writes count in the write latency
        metrics; the durability steps' bursts do not, so that every
        workload samples its writes across the whole pass."""
        live = durable.live
        if j % DELETE_EVERY == DELETE_EVERY - 1:
            kind, call, arg = "delete", durable.store.delete, live.pick(self.rng)
        else:
            kind, call = "insert", durable.store.insert
            arg = self.inserts[self._next_insert % len(self.inserts)]
            self._next_insert += 1
        cpu = time.process_time()
        out, seconds = timed(tracer, kind, call, arg)
        cpu = time.process_time() - cpu
        tally.attempted += 1
        if sample:
            tally.write_lat.append(seconds)
            tally.write_ids.append(j % WRITE_SLOTS)
            tally.write_cpu.append(cpu)
        if isinstance(out, Exception):
            tally.fail(f"write: {type(out).__name__}: {out}")
        elif kind == "delete":
            live.remove(arg)
        else:
            live.add(int(out), arg)
        return seconds

    def _checkpoint(self, tracer, tally: Tally, durable: Durable) -> float:
        out, seconds = timed(tracer, "checkpoint", durable.store.checkpoint)
        if isinstance(out, Exception):
            tally.fail(f"checkpoint: {type(out).__name__}: {out}")
        else:
            tally.checkpoint_bytes.append(
                os.path.getsize(durable.store.path) / self._user_bytes(durable)
            )
        return seconds

    def _user_bytes(self, durable: Durable) -> int:
        """Bytes of live float32 user data."""
        return durable.live.n_live * self.size.dim * 4

    # ------------------------------------------------------------------
    # Measured pass
    # ------------------------------------------------------------------
    def run(self, tracer, seconds: float | None = None,
            ops: int | None = None) -> Tally:
        """One measured pass, bounded by the main loop's timed seconds
        or by its op count (kNN calls on the read workloads, rounds on
        write-mix), with ``size.steps`` durability steps spread evenly
        over it."""
        tally = Tally()
        if self.durable is None:
            self.durable = self._durable_copy()
        loop = {
            "knn-single": self._single,
            "knn-batch": self._batch,
            "write-mix": self._rounds,
        }[self.name](tracer, tally)
        steps, done = self.size.steps, 0
        try:
            for step in range(1, steps + 1):
                while (
                    tally.wall < seconds * step / steps
                    if ops is None
                    else done < ops * step // steps
                ):
                    next(loop)
                    done += 1
                self._durability_step(tracer, tally)
        finally:
            loop.close()
        return tally

    def _side_writes(self, tracer, tally: Tally) -> None:
        """The read workloads' journaled writes to the durable copy."""
        for _ in range(SIDE_WRITES[self.name]):
            self._write(tracer, tally, self.durable, self._side)
            self._side += 1

    def _single(self, tracer, tally: Tally):
        """knn-single: one timed ``nearest`` per iteration."""
        cache = self.tree.use_decoded_cache(self.cache_budget)
        n_pool = self.size.pool
        for i in range(self.size.warmup):
            self._nearest(tracer, tally, i % n_pool, False, True)
        hits, misses = cache.hits, cache.misses
        qi = self.size.warmup
        try:
            while True:
                self._nearest(tracer, tally, qi % n_pool, True, True)
                self._side_writes(tracer, tally)
                qi += 1
                yield
        finally:
            tally.cache = (cache.hits - hits, cache.misses - misses)

    def _batch(self, tracer, tally: Tally):
        """knn-batch: one timed ``knn_batch`` per iteration."""
        from repro import QueryEngine

        b = self.size.batch
        n_batches = len(self.queries) // b
        engine = QueryEngine(
            self.tree, workers=WORKERS, backend="process",
            decode_cache=self.cache_budget,
        )
        cache = self.tree.decoded_cache
        hits = misses = 0
        i = 0
        try:
            while True:
                timed_op = i >= self.size.warmup
                if i == self.size.warmup:
                    hits, misses = cache.hits, cache.misses
                first = (i % n_batches) * b
                i += 1
                res, seconds = timed(
                    tracer, "knn_batch" if timed_op else "warmup",
                    engine.knn_batch, self.queries[first : first + b], k=K,
                )
                tally.attempted += b
                if timed_op:
                    tally.wall += seconds
                    tally.queries += b
                    tally.knn_lat.append(seconds)
                    tally.knn_ids.append(first // b)
                if isinstance(res, Exception):
                    tally.fail(f"knn_batch: {type(res).__name__}: {res}", b)
                else:
                    if timed_op:
                        io, st = res.stats.io, res.stats
                        tally.sim.append(io.elapsed / b)
                        tally.ledger.append((
                            io.seeks, io.blocks_read, io.blocks_overread,
                            io.elapsed, st.pages_read, st.refinements,
                            st.decoded_pages_reused,
                        ))
                    for j, answer in enumerate(res):
                        self._check(tally, self.live, first + j, answer.ids,
                                    answer.distances, True)
                if timed_op:
                    self._side_writes(tracer, tally)
                    yield
        finally:
            tally.cache = (cache.hits - hits, cache.misses - misses)
            engine.close()

    def _rounds(self, tracer, tally: Tally):
        """write-mix: one round (writes, queries, sweep) per iteration."""
        size = self.size
        n_pool = size.pool - 1
        qi = rounds = 0
        while True:
            for j in range(size.burst):
                tally.wall += self._write(tracer, tally, self.durable, j)
                tally.writes += 1
            for _ in range(size.burst // 2):
                self._nearest(tracer, tally, qi % n_pool, True, False)
                qi += 1
            report, seconds = timed(tracer, "sweep", self.manager.maybe_sweep)
            tally.wall += seconds
            if isinstance(report, Exception):
                tally.fail(f"sweep: {type(report).__name__}: {report}")
            else:
                tally.sweeps.append((
                    len(report.dirty), report.requantized,
                    report.restructured,
                ))
            rounds += 1
            if rounds % size.checkpoint_every == 0:
                tally.wall += self._checkpoint(tracer, tally, self.durable)
            yield

    # ------------------------------------------------------------------
    # Durability step
    # ------------------------------------------------------------------
    def _durability_step(self, tracer, tally: Tally) -> None:
        """Checkpoint, journaled tail, close, reopen, verify."""
        from repro.storage.journal import DurableTree, wal_path

        durable, size = self.durable, self.size
        self._checkpoint(tracer, tally, durable)
        for j in range(size.tail_ops):
            self._write(tracer, tally, durable, j, sample=False)
        path = durable.store.path
        user = self._user_bytes(durable)
        journal = os.path.getsize(wal_path(path))
        tally.space_amp.append((os.path.getsize(path) + journal) / user)
        tally.journal_share.append(journal / user)
        probes = []
        for qi in range(size.probes):
            res = durable.store.tree.nearest(self.queries[qi], k=K)
            probes.append((res.ids, res.distances))
            tally.attempted += 1
            self._check(tally, durable.live, qi, res.ids, res.distances, False)
        durable.store.close()
        reopened, seconds = timed(
            tracer, "open", DurableTree.open, path, fsync=True, group_commit=1
        )
        tally.attempted += 1
        if isinstance(reopened, Exception):
            # keep writing to the pre-close tree: the run goes on
            tally.fail(f"open: {type(reopened).__name__}: {reopened}")
            durable.store = DurableTree.create(
                durable.store.tree, self._path(), fsync=True, group_commit=1
            )
            return
        tally.recovery.append(seconds)
        tally.replayed.append(reopened.recovered_ops)
        self._verify_reopened(tally, durable, reopened, probes)
        durable.store = reopened
        if self.name == "write-mix":
            self.tree = reopened.tree
            self.manager = self.tree.maintenance_manager()

    def _verify_reopened(self, tally, durable, reopened, probes) -> None:
        """Acked inserts present, acked deletes absent, probes unchanged."""
        from repro.core.maintenance import locate_point

        tree, live = reopened.tree, durable.live
        problems = []
        for qi, (ids, dists) in enumerate(probes):
            res = tree.nearest(self.queries[qi], k=K)
            if not (np.array_equal(res.ids, ids)
                    and np.array_equal(res.distances, dists)):
                problems.append(f"probe {qi} changed across reopen")
        alive = live.live_ids()
        if any(locate_point(tree, int(i)) is None for i in alive):
            problems.append("an acknowledged insert is missing")
        if any(locate_point(tree, int(i)) is not None
               for i in live.dead_ids()):
            problems.append("an acknowledged delete came back")
        if not np.array_equal(tree.points[alive], live.coords(alive)):
            problems.append("stored coordinates changed across reopen")
        if reopened.recovered_ops != self.size.tail_ops:
            problems.append(
                f"replayed {reopened.recovered_ops} of {self.size.tail_ops}"
            )
        if problems:
            tally.fail("; ".join(problems))


def digest(tally: Tally) -> str:
    """Hash of the ledger-derived per-call counts (determinism guard)."""
    blob = repr((tally.ledger, tally.sweeps, tally.replayed)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
