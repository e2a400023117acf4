"""Query tracing: nested spans with wall-clock and simulated-I/O cost.

A :class:`Tracer` produces a tree of :class:`Span` objects.  Entering a
span snapshots the bound :class:`~repro.storage.disk.SimulatedDisk`'s
ledger; leaving it records the delta, so every span carries the
simulated seeks/blocks/time that happened inside it.  Because children
nest inside their parent's snapshot window, a span's *own* I/O (its
total minus its children's) partitions the ledger exactly: summing
``own_io`` over the whole tree reproduces the root's total, which in
turn equals the disk's :class:`~repro.storage.disk.IOStats` delta for
the traced call.

Spans carry **two** clocks.  ``wall_seconds`` is the host's
``perf_counter`` delta -- useful to humans, worthless for comparison
(it varies run to run).  ``sim_start``/``sim_seconds`` place the span
on the *simulated-seconds* timeline read from the tracer's clock disk,
so a trace of a fixed workload is bit-identical across runs and worker
counts; the exporters in
:mod:`repro.obs.export` emit only the simulated timeline.

Work executed in worker processes cannot touch the ambient tracer (a
process cannot see it).  Worker kernels instead return
compact, picklable :class:`SpanRecord` lists which the coordinator
grafts into the live tree with :meth:`Tracer.stitch` -- in query order,
so the stitched tree is independent of how work was sharded.

Library code never takes a tracer argument.  Instead it calls the
ambient :func:`span` helper, which is a no-op context manager unless a
:func:`trace_query` block is active -- so instrumented code paths cost
one truthiness check when nobody is tracing.

Usage::

    from repro import obs

    with obs.trace_query(tree, name="knn") as tracer:
        tree.query_engine().knn_batch(queries, k=5)
    print(tracer.render())          # human-readable span tree
    payload = tracer.to_dict()      # JSON-friendly export
    events = tracer.root.to_events()  # Chrome trace events (Perfetto)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanIO",
    "SpanRecord",
    "Tracer",
    "span",
    "trace_query",
    "active_tracer",
]


@dataclass(frozen=True)
class SpanIO:
    """Simulated-I/O figures attributed to one span."""

    seeks: int = 0
    blocks_read: int = 0
    blocks_overread: int = 0
    elapsed: float = 0.0

    def __sub__(self, other: "SpanIO") -> "SpanIO":
        return SpanIO(
            seeks=self.seeks - other.seeks,
            blocks_read=self.blocks_read - other.blocks_read,
            blocks_overread=self.blocks_overread - other.blocks_overread,
            elapsed=self.elapsed - other.elapsed,
        )

    def __add__(self, other: "SpanIO") -> "SpanIO":
        return SpanIO(
            seeks=self.seeks + other.seeks,
            blocks_read=self.blocks_read + other.blocks_read,
            blocks_overread=self.blocks_overread + other.blocks_overread,
            elapsed=self.elapsed + other.elapsed,
        )

    def to_dict(self) -> dict:
        return {
            "seeks": self.seeks,
            "blocks_read": self.blocks_read,
            "blocks_overread": self.blocks_overread,
            "elapsed": self.elapsed,
        }


def _snapshot(disk) -> SpanIO:
    if disk is None:
        return SpanIO()
    s = disk.stats
    return SpanIO(
        seeks=s.seeks,
        blocks_read=s.blocks_read,
        blocks_overread=s.blocks_overread,
        elapsed=s.elapsed,
    )


@dataclass(frozen=True)
class SpanRecord:
    """A completed worker span as plain, picklable data.

    What a worker kernel hands back across the process boundary: no
    live objects, only the name and attributes.  Worker kernels charge
    no simulated I/O, so a record carries no I/O figures -- identical
    for any worker count.  No wall clock is recorded either: worker wall
    time is scheduling noise, and the enclosing coordinator span already
    times the whole phase for humans.

    :meth:`Tracer.stitch` turns records back into zero-I/O :class:`Span`
    leaves placed at the coordinator's current simulated time.
    """

    name: str
    attrs: tuple = ()  # ((key, value), ...) -- dicts don't hash/freeze


@dataclass
class Span:
    """One node of a trace: a named, timed, I/O-attributed interval.

    ``wall_seconds`` is host wall-clock (humans only).  ``sim_start``
    and ``sim_seconds`` are the span's interval on the simulated-seconds
    timeline -- deterministic, and what the exporters emit.
    """

    name: str
    attrs: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    wall_seconds: float = 0.0
    io: SpanIO = field(default_factory=SpanIO)
    sim_start: float = 0.0
    sim_seconds: float = 0.0

    @property
    def own_io(self) -> SpanIO:
        """This span's I/O minus everything attributed to children."""
        own = self.io
        for child in self.children:
            own = own - child.io
        return own

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for node in self.walk():
            if node.name == name:
                return node
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree (depth-first)."""
        return [node for node in self.walk() if node.name == name]

    def to_dict(self) -> dict:
        """JSON-friendly recursive export."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "wall_seconds": self.wall_seconds,
            "sim_start": self.sim_start,
            "sim_seconds": self.sim_seconds,
            "io": self.io.to_dict(),
            "own_io": self.own_io.to_dict(),
            "children": [c.to_dict() for c in self.children],
        }

    def sim_dict(self) -> dict:
        """Deterministic projection: everything except wall clock.

        Bit-identical across runs and worker counts for a
        fixed workload -- what the sweep tests compare and the
        exporters serialize.
        """
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "sim_start": self.sim_start,
            "sim_seconds": self.sim_seconds,
            "io": self.io.to_dict(),
            "own_io": self.own_io.to_dict(),
            "children": [c.sim_dict() for c in self.children],
        }

    def to_events(self, pid: int = 0, tid: int = 0) -> list[dict]:
        """This subtree as Chrome trace events (``B``/``E`` pairs).

        Timestamps are the simulated-seconds timeline in microseconds
        (the format's unit), so the events are deterministic and load
        directly in Perfetto / ``chrome://tracing``.  Events come out
        depth-first, which makes ``ts`` non-decreasing: a child's
        window nests inside its parent's because the simulated clock
        only advances inside the parent's snapshot window.
        """
        events: list[dict] = []
        self._emit_events(events, pid, tid)
        return events

    def _emit_events(self, out: list, pid: int, tid: int) -> None:
        args = dict(self.attrs)
        own = self.own_io
        args["own_seeks"] = own.seeks
        args["own_blocks"] = own.blocks_read
        out.append(
            {
                "name": self.name,
                "cat": "iq",
                "ph": "B",
                "ts": round(self.sim_start * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        for child in self.children:
            child._emit_events(out, pid, tid)
        out.append(
            {
                "name": self.name,
                "cat": "iq",
                "ph": "E",
                "ts": round((self.sim_start + self.sim_seconds) * 1e6, 3),
                "pid": pid,
                "tid": tid,
            }
        )


class Tracer:
    """Builds a span tree around a simulated disk's ledger.

    ``disk`` doubles as the tracer's *clock*: every span's
    ``sim_start`` is read from it, even when the span attributes its
    I/O to a different disk (the shard router's per-shard sub-spans
    measure their delta on the shard disk but are placed on the
    router's composite timeline, which keeps sibling timestamps
    monotone).
    """

    def __init__(self, disk=None):
        self.disk = disk
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @property
    def root(self) -> Span | None:
        """The first top-level span (the usual single-root case)."""
        return self.roots[0] if self.roots else None

    @contextmanager
    def span(self, name: str, disk=None, **attrs):
        """Open a child span of whatever span is currently active."""
        node = Span(name=name, attrs=attrs)
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        disk = disk if disk is not None else self.disk
        clock = self.disk if self.disk is not None else disk
        node.sim_start = _snapshot(clock).elapsed
        io_before = _snapshot(disk)
        t0 = time.perf_counter()
        try:
            yield node
        finally:
            node.wall_seconds = time.perf_counter() - t0
            node.io = _snapshot(disk) - io_before
            node.sim_seconds = node.io.elapsed
            self._stack.pop()

    # ------------------------------------------------------------------
    # Worker-record stitching
    # ------------------------------------------------------------------
    def stitch(self, records, parent: Span | None = None) -> list[Span]:
        """Graft worker :class:`SpanRecord` lists into the live tree.

        Records become zero-I/O children of ``parent`` (default: the
        currently open span), placed at this tracer's simulated clock
        reading *now*.  Call in query order so the stitched tree does
        not depend on how the work was sharded across workers.
        """
        if parent is None:
            parent = self._stack[-1] if self._stack else None
        base = _snapshot(self.disk).elapsed
        spans = [
            Span(name=rec.name, attrs=dict(rec.attrs), sim_start=base)
            for rec in records
        ]
        if parent is None:
            self.roots.extend(spans)
        else:
            parent.children.extend(spans)
        return spans

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"spans": [r.to_dict() for r in self.roots]}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable span tree with per-span I/O attribution.

        The ``own`` column is each span's exclusive share; own figures
        over the whole tree sum to the root's total.
        """
        lines = [
            f"{'span':<42} {'wall':>9}  {'sim-io':>10}  "
            f"{'own':>10}  {'seeks':>5}  {'blocks':>6}"
        ]
        for root in self.roots:
            self._render_into(root, "", "", lines)
        return "\n".join(lines)

    def _render_into(self, node, prefix, child_prefix, lines) -> None:
        label = prefix + node.name
        own = node.own_io
        lines.append(
            f"{label:<42} {node.wall_seconds * 1e3:>7.2f}ms  "
            f"{node.io.elapsed * 1e3:>8.2f}ms  "
            f"{own.elapsed * 1e3:>8.2f}ms  "
            f"{own.seeks:>5}  {own.blocks_read:>6}"
        )
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            branch = "└─ " if last else "├─ "
            extend = "   " if last else "│  "
            self._render_into(
                child,
                child_prefix + branch,
                child_prefix + extend,
                lines,
            )


# ----------------------------------------------------------------------
# Ambient API used by instrumented library code
# ----------------------------------------------------------------------
_ACTIVE: list[Tracer] = []


class _NullSpan:
    """Reusable no-op context manager for the untraced fast path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def active_tracer() -> Tracer | None:
    """The innermost active tracer, or None outside ``trace_query``."""
    return _ACTIVE[-1] if _ACTIVE else None


def span(name: str, disk=None, **attrs):
    """Context manager: a span on the active tracer, or a no-op.

    Library hooks call this unconditionally; without an active
    :func:`trace_query` block it returns a shared null context manager,
    so instrumentation costs one list-truthiness check.
    """
    if not _ACTIVE:
        return _NULL_SPAN
    return _ACTIVE[-1].span(name, disk=disk, **attrs)


def _resolve_disk(target):
    """Find the simulated disk behind whatever the caller handed us."""
    if target is None:
        return None
    for candidate in (target, getattr(target, "tree", None)):
        if candidate is None:
            continue
        disk = getattr(candidate, "disk", None)
        if disk is not None and hasattr(disk, "stats"):
            return disk
    # A bare disk (anything exposing an IOStats-shaped ledger).
    return target if hasattr(target, "stats") else None


@contextmanager
def trace_query(target=None, name: str = "query"):
    """Trace everything executed inside the block as a span tree.

    ``target`` is an :class:`~repro.core.tree.IQTree`, a
    :class:`~repro.engine.QueryEngine`, a
    :class:`~repro.engine.sharding.ShardRouter` (whose composite ledger
    view becomes the clock), a
    :class:`~repro.storage.disk.SimulatedDisk`, or None (wall-clock
    only).  Yields the :class:`Tracer`; after the block exits,
    ``tracer.root`` holds the finished span tree.
    """
    disk = _resolve_disk(target)
    tracer = Tracer(disk)
    _ACTIVE.append(tracer)
    try:
        with tracer.span(name):
            yield tracer
    finally:
        _ACTIVE.pop()
