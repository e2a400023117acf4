"""Host-time spans around calls into the program's layers.

The traced run times each layer from outside: :func:`install` replaces
public functions and methods of the ``repro`` package with thin wrappers
for the duration of a traced pass and :func:`uninstall` puts the
originals back.  No program code changes.

Every public call the benchmark makes (``nearest``, ``knn_batch``, a
journaled write, a sweep, a checkpoint, an open) runs inside a
:meth:`Tracer.request` root span.  A wrapped call inside it becomes a
child span with a name, start, end, parent and request id.  At the
hottest boundaries (per-cell refinement, per-page cell bounds, block
reads, page encode/decode) the tracer keeps one per-request count and
total per layer instead of one span per call.  Spans stay in memory and
are written out with :meth:`Tracer.dump` when the run ends.

A layer's *total* time counts only its outermost frame (a layer that
calls itself is not counted twice); its *self* time is its frames'
durations minus the time covered by their child frames.  Worker-process
kernel time is out of reach from here: ``WorkerPool.map_sharded`` is
timed on the coordinator, split by the kernel it maps.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import json
import os
import threading
import time

#: (module, attribute, layer, hot).  ``attribute`` may be ``Class.method``.
#: Functions imported by name are patched in the importing module, so
#: only the call sites listed here are timed: e.g. ``mindist_to_boxes``
#: in ``repro.core.search`` is the directory scan, while the same
#: function called from a quantizer is part of the cell bounds.
PATCHES = [
    # build
    ("repro.core.tree", "correlation_dimension", "costmodel.fractal", False),
    ("repro.core.tree", "bulk_load_partitions", "core.build", False),
    ("repro.core.tree", "optimize_partitions", "core.optimizer", False),
    ("repro.core.tree", "choose_codecs", "core.optimizer.codec", False),
    ("repro.core.maintenance", "optimize_partitions", "core.optimizer", True),
    ("repro.core.maintenance", "choose_codecs", "core.optimizer.codec", True),
    ("repro.quantization.codecs", "fit_pq", "quantization.codecs.fit_pq", True),
    # page layout and decode
    ("repro.storage.serializer", "encode_quantized_page", "storage.serializer.encode", True),
    ("repro.storage.serializer", "encode_pq_page", "storage.serializer.encode", True),
    ("repro.storage.serializer", "encode_exact_record", "storage.serializer.encode", True),
    ("repro.storage.serializer", "encode_directory", "storage.serializer.encode", True),
    ("repro.quantization.eliasfano", "encode_ef_directory", "storage.serializer.encode", True),
    ("repro.storage.serializer", "decode_quantized_page", "storage.serializer.decode", True),
    # single-query search
    ("repro.core.search", "mindist_to_boxes", "geometry.mbr.directory", False),
    ("repro.core.search", "cost_balance_window", "storage.scheduler", True),
    ("repro.core.search", "access_probabilities", "costmodel.access_probability", True),
    ("repro.quantization.grid", "GridQuantizer.cell_mindist", "quantization.cell_bounds", True),
    ("repro.quantization.grid", "GridQuantizer.cell_bounds", "quantization.cell_bounds", True),
    ("repro.quantization.codecs", "PQView.cell_mindist", "quantization.cell_bounds", True),
    ("repro.quantization.codecs", "PQView.cell_bounds", "quantization.cell_bounds", True),
    ("repro.core.tree", "ExactStore.fetch", "core.search.refine", True),
    # batch engine
    ("repro.engine.engine", "mindist_matrix", "geometry.mbr.directory", False),
    ("repro.engine.engine", "maxdist_matrix", "geometry.mbr.directory", False),
    ("repro.engine.decode", "PageDecodeCache.load", "engine.decode.load", False),
    ("repro.engine.decode", "PageDecodeCache.ensure_bounds", "engine.decode.bounds", False),
    ("repro.engine.decode", "ExactBatchStore.fetch_all", "engine.decode.refine", False),
    ("repro.engine.concurrent", "WorkerPool.map_sharded", "engine.concurrent", False),
    # storage
    ("repro.storage.blockfile", "BlockFile.read_block", "storage.disk.read", True),
    ("repro.storage.blockfile", "BlockFile.read_run", "storage.disk.read", True),
    ("repro.storage.blockfile", "BlockFile.read_batched", "storage.disk.read", True),
    ("repro.storage.disk", "SimulatedDisk.read_blocks", "storage.disk.read", True),
    # write path, checkpoints and recovery
    ("repro.storage.journal", "WriteAheadJournal.append", "storage.journal.append", True),
    ("repro.storage.journal", "WriteAheadJournal.sync", "storage.journal.sync", True),
    ("os", "fsync", "fsync", True),
    ("repro.core.tree", "IQTree.insert", "core.tree.apply", True),
    ("repro.core.tree", "IQTree.delete", "core.tree.apply", True),
    ("repro.storage.journal", "load_iqtree", "storage.persistence.load", False),
]

#: map_sharded is split by the kernel it maps
_KERNEL_LAYERS = {
    "plan_knn_shard": "engine.concurrent.plan",
    "assemble_knn_shard": "engine.concurrent.assemble",
}

#: an fsync issued inside these layers is the journal's
_JOURNAL_LAYERS = ("storage.journal.append", "storage.journal.sync")

#: cell-bound methods -> position of their ``codes`` argument
_CODES_ARG = {"cell_bounds": 0, "cell_mindist": 1}


class Request:
    """One root span: a public call the benchmark made."""

    __slots__ = ("rid", "kind", "start", "end", "child", "layers", "counts")

    def __init__(self, rid: int, kind: str, start: float):
        self.rid = rid
        self.kind = kind
        self.start = start
        self.end = start
        self.child = 0.0
        #: layer -> [outermost calls, total seconds, self seconds]
        self.layers: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return self.end - self.start

    def layer(self, name: str) -> list:
        return self.layers.get(name, (0, 0.0, 0.0))


class Tracer:
    """In-memory span recorder for the coordinator thread."""

    def __init__(self):
        self.pid = os.getpid()
        self.tid = threading.get_ident()
        self.requests: list[Request] = []
        #: (span id, name, start, end, parent span id, request id)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [layer, start, child s, span id]
        self._depth: dict[str, int] = {}
        self._request: Request | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def request(self, kind: str):
        """Root span around one public call; yields its Request."""
        if self._request is not None:
            raise RuntimeError("requests do not nest")
        req = Request(len(self.requests), kind, time.perf_counter())
        span_id = len(self.spans)
        self.spans.append(None)  # filled on exit, keeps ids in order
        self._request = req
        self._stack.append([f"request.{kind}", req.start, 0.0, span_id])
        try:
            yield req
        finally:
            frame = self._stack.pop()
            req.end = time.perf_counter()
            req.child = frame[2]
            self.spans[span_id] = (
                span_id, frame[0], req.start, req.end, None, req.rid
            )
            self.requests.append(req)
            self._request = None

    def count(self, name: str, value: float) -> None:
        """Add ``value`` to a per-request counter (no-op outside one)."""
        req = self._request
        if req is not None:
            req.counts[name] = req.counts.get(name, 0.0) + value

    def _active(self) -> bool:
        return (
            self._request is not None
            and threading.get_ident() == self.tid
            and os.getpid() == self.pid
        )

    def call(self, layer: str, hot: bool, fn, args, kwargs):
        """Run ``fn`` inside a frame of ``layer``."""
        if not self._active():
            return fn(*args, **kwargs)
        span_id = None
        if not hot:
            span_id = len(self.spans)
            self.spans.append(None)
        self._depth[layer] = self._depth.get(layer, 0) + 1
        frame = [layer, time.perf_counter(), 0.0, span_id]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            depth = self._depth[layer] - 1
            self._depth[layer] = depth
            duration = end - frame[1]
            parent = self._stack[-1]
            parent[2] += duration
            stats = self._request.layers.setdefault(layer, [0, 0.0, 0.0])
            if depth == 0:
                stats[0] += 1
                stats[1] += duration
            stats[2] += duration - frame[2]
            if span_id is not None:
                parent_id = next(
                    f[3] for f in reversed(self._stack) if f[3] is not None
                )
                self.spans[span_id] = (
                    span_id, layer, frame[1], end, parent_id,
                    self._request.rid,
                )

    def inside(self, layers) -> bool:
        return any(self._depth.get(name, 0) for name in layers)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def of_kind(self, *kinds: str) -> list[Request]:
        return [r for r in self.requests if r.kind in kinds]

    def coverage(self, kinds) -> float:
        """Share of request wall time covered by named layer spans."""
        reqs = self.of_kind(*kinds)
        wall = sum(r.wall for r in reqs)
        return sum(r.child for r in reqs) / wall if wall else 0.0

    def count_digest(self) -> str:
        """Hash of the per-request wrapper counts (calls and counters)."""
        rows = [
            (r.kind, sorted((k, v[0]) for k, v in r.layers.items()),
             sorted(r.counts.items()))
            for r in self.requests
        ]
        return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]

    def dump(self, path, meta: dict) -> None:
        """Write every span and per-request aggregate as JSON."""
        out = {
            "meta": meta,
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "request"), s))
                for s in self.spans
                if s is not None
            ],
            "requests": [
                {
                    "id": r.rid,
                    "kind": r.kind,
                    "wall_s": r.wall,
                    "self_s": r.wall - r.child,
                    "layers": {
                        k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                        for k, v in r.layers.items()
                    },
                    "counts": r.counts,
                }
                for r in self.requests
            ],
        }
        with open(path, "w") as handle:
            json.dump(out, handle)


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------
def _wrapper(tracer: Tracer, layer: str, hot: bool, fn, name: str):
    if layer == "engine.concurrent":

        @functools.wraps(fn)
        def mapped(self, kernel, *args, **kwargs):
            name = _KERNEL_LAYERS.get(
                getattr(kernel, "__name__", ""), "engine.concurrent.other"
            )
            return tracer.call(
                name, False, fn, (self, kernel) + args, kwargs
            )

        return mapped
    if layer == "fsync":

        @functools.wraps(fn)
        def fsync(fd):
            name = (
                "storage.journal.fsync"
                if tracer.inside(_JOURNAL_LAYERS)
                else "storage.fsync"
            )
            return tracer.call(name, True, fn, (fd,), {})

        return fsync
    if layer == "quantization.cell_bounds":
        codes_at = _CODES_ARG[name]

        # counts the codes of the outermost call only
        @functools.wraps(fn)
        def bounded(self, *args, **kwargs):
            if tracer._active() and not tracer._depth.get(layer, 0):
                tracer.count("quantization.cells_bounded", len(args[codes_at]))
            return tracer.call(layer, hot, fn, (self,) + args, kwargs)

        return bounded

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(layer, hot, fn, args, kwargs)

    return wrapped


def install(tracer: Tracer) -> list:
    """Patch every boundary in :data:`PATCHES`; returns the undo list."""
    undo = []
    for module_name, attr, layer, hot in PATCHES:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if path else getattr(owner, name)
        setattr(owner, name, _wrapper(tracer, layer, hot, original, name))
        undo.append((owner, name, original))
    return undo


def uninstall(undo: list) -> None:
    """Restore the originals patched by :func:`install`."""
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
