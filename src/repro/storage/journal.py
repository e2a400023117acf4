"""Crash-safe online writes: a write-ahead journal over the container.

The container format (:mod:`repro.storage.persistence`) makes *whole
trees* durable; this module makes individual ``insert``/``delete``
operations durable between checkpoints.  A :class:`DurableTree` pairs a
live :class:`~repro.core.tree.IQTree` with an append-only, fsync'd,
CRC-framed :class:`WriteAheadJournal` next to its container file: every
maintenance operation is journaled *before* it touches the in-memory
tree, so an acknowledged write survives any crash, and
:meth:`DurableTree.open` replays the journal tail on load to rebuild
exactly the acknowledged state.

Journal file layout (all integers little-endian)::

    header    magic b"IQWAL001"                       8 bytes
              base_seq   u64  seq at the last reset   8 bytes
              header_crc u32  CRC32(magic + base_seq) 4 bytes
    record*   body_len   u32  length of the body
              frame_crc  u32  CRC32 of the body_len field
              body_crc   u32  CRC32 of the body
              body           <Q seq><B op> + payload

``frame_crc`` protects the length field on its own, which is what lets
the scanner distinguish the two failure modes with different contracts:

* **torn tail** -- the final record's frame or body is *truncated*
  (a crash cut an in-flight append short).  The append was never
  acknowledged, so the scanner drops the partial record and recovery
  proceeds; the file is truncated back to the last complete record.
* **corruption** -- a *complete* frame or body whose CRC does not
  match, or a sequence-number gap.  That is acknowledged data gone
  bad (bit rot, a misdirected write), and silently dropping it would
  lose an acked operation, so the scan raises
  :class:`~repro.exceptions.IntegrityError` instead.

Checkpoint protocol (:meth:`DurableTree.checkpoint`): the container is
re-saved atomically (temp + fsync + rename, the PR 2 machinery) with
the journal's current sequence number recorded in its meta section as
``wal_seq``; the journal is then atomically replaced by an empty one
whose ``base_seq`` equals that ``wal_seq``.  Replay skips records with
``seq <= wal_seq``, so a crash *between* the container rename and the
journal reset cannot double-apply operations, and a crash *during*
either atomic write leaves the old file -- every window is safe.

Fault injection: :meth:`DurableTree.inject_crash` raises
:class:`~repro.storage.faults.PowerLoss` at a named protocol boundary;
:meth:`DurableTree.inject_torn_append` and
:meth:`DurableTree.inject_torn_checkpoint` cut the power mid-write
after a byte budget, the same pattern as
:func:`repro.storage.faults.torn_save`.  At-rest corruption of the
journal reuses :class:`~repro.storage.faults.FaultInjector` directly
(it is path-based), aimed with :func:`record_spans`.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import IntegrityError, SearchError, StorageError
from repro.obs.instruments import (
    REGISTRY,
    WAL_APPENDED_BYTES,
    WAL_APPENDS,
    WAL_CHECKPOINTS,
    WAL_FSYNCS,
    WAL_RECOVERIES,
    WAL_REPLAYED,
    WAL_SIZE,
)
from repro.storage.faults import PowerLoss
from repro.storage.persistence import (
    _atomic_write,
    load_iqtree,
    serialize_iqtree,
)

__all__ = [
    "DurableTree",
    "JournalRecord",
    "JournalScan",
    "OP_DELETE",
    "OP_INSERT",
    "WriteAheadJournal",
    "record_spans",
    "wal_path",
    "CRASH_POINTS",
]

MAGIC_WAL = b"IQWAL001"
_HEADER = struct.Struct("<QI")  # base_seq, header_crc
_HEADER_SIZE = len(MAGIC_WAL) + _HEADER.size
_FRAME = struct.Struct("<III")  # body_len, frame_crc, body_crc
_BODY_HEAD = struct.Struct("<QB")  # seq, op

OP_INSERT = 1
OP_DELETE = 2
_OPS = {OP_INSERT: "insert", OP_DELETE: "delete"}

#: Named crash boundaries honored by :meth:`DurableTree.inject_crash`,
#: in protocol order.  ``*:pre-append`` fires before the journal write
#: (the op is lost, never acked); ``*:post-append`` fires after the
#: fsync but before the in-memory apply (the op is acked and must
#: survive); the checkpoint points bracket the container save and the
#: journal reset.
CRASH_POINTS = (
    "insert:pre-append",
    "insert:post-append",
    "delete:pre-append",
    "delete:post-append",
    "checkpoint:pre-save",
    "checkpoint:post-save",
    "checkpoint:post-reset",
)


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def wal_path(container_path) -> Path:
    """The journal sidecar path of a container file."""
    container_path = Path(container_path)
    return container_path.with_name(container_path.name + ".wal")


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal record."""

    seq: int
    op: int
    payload: bytes


@dataclass(frozen=True)
class JournalScan:
    """Outcome of scanning a journal file.

    ``outcome`` is ``"clean"`` or ``"torn-tail"``; a scan that detects
    corruption of acknowledged data raises instead of returning.
    ``valid_bytes`` is where the last complete record ends (the safe
    truncation point); ``dropped_bytes`` counts the torn tail.
    """

    base_seq: int
    records: tuple[JournalRecord, ...]
    valid_bytes: int
    outcome: str
    dropped_bytes: int

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else self.base_seq


def _encode_record(seq: int, op: int, payload: bytes) -> bytes:
    body = _BODY_HEAD.pack(seq, op) + payload
    len_field = struct.pack("<I", len(body))
    return (
        len_field
        + struct.pack("<II", _crc(len_field), _crc(body))
        + body
    )


def scan_journal(path) -> JournalScan:
    """Parse a journal file, applying the torn-vs-corrupt policy.

    Raises :class:`~repro.exceptions.IntegrityError` on a damaged
    header, a complete record whose CRC does not match, or a sequence
    gap -- all of which mean acknowledged data was lost or mangled.  A
    truncated final record is a torn (never-acknowledged) append and is
    reported, not raised.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER_SIZE or raw[: len(MAGIC_WAL)] != MAGIC_WAL:
        raise IntegrityError(
            f"{path}: not a journal file (bad or truncated header)",
            section="journal",
        )
    base_seq, header_crc = _HEADER.unpack(
        raw[len(MAGIC_WAL) : _HEADER_SIZE]
    )
    if _crc(raw[: _HEADER_SIZE - 4]) != header_crc:
        raise IntegrityError(
            f"{path}: journal header CRC mismatch", section="journal"
        )
    records: list[JournalRecord] = []
    offset = _HEADER_SIZE
    expected = base_seq + 1
    while offset < len(raw):
        remaining = len(raw) - offset
        if remaining < _FRAME.size:
            break  # torn mid-frame: the append was never acked
        body_len, frame_crc, body_crc = _FRAME.unpack(
            raw[offset : offset + _FRAME.size]
        )
        if _crc(raw[offset : offset + 4]) != frame_crc:
            raise IntegrityError(
                f"{path}: journal record frame CRC mismatch at byte "
                f"{offset}",
                section="journal",
            )
        if body_len < _BODY_HEAD.size:
            raise IntegrityError(
                f"{path}: journal record at byte {offset} declares an "
                f"impossible body length {body_len}",
                section="journal",
            )
        if remaining - _FRAME.size < body_len:
            break  # torn mid-body: length field is trustworthy
        body = raw[offset + _FRAME.size : offset + _FRAME.size + body_len]
        if _crc(body) != body_crc:
            raise IntegrityError(
                f"{path}: journal record body CRC mismatch at byte "
                f"{offset} (acknowledged data corrupted)",
                section="journal",
            )
        seq, op = _BODY_HEAD.unpack(body[: _BODY_HEAD.size])
        if seq != expected:
            raise IntegrityError(
                f"{path}: journal sequence gap: expected {expected}, "
                f"found {seq}",
                section="journal",
            )
        if op not in _OPS:
            raise IntegrityError(
                f"{path}: unknown journal op code {op}", section="journal"
            )
        records.append(
            JournalRecord(seq, op, body[_BODY_HEAD.size :])
        )
        expected += 1
        offset += _FRAME.size + body_len
    dropped = len(raw) - offset
    return JournalScan(
        base_seq=base_seq,
        records=tuple(records),
        valid_bytes=offset,
        outcome="torn-tail" if dropped else "clean",
        dropped_bytes=dropped,
    )


def record_spans(path) -> list[tuple[int, int, int]]:
    """Byte span ``(start, stop, seq)`` of each complete record.

    The fault-injection harness uses this to aim a
    :class:`~repro.storage.faults.FaultInjector` bit flip at a specific
    acknowledged record.
    """
    scan = scan_journal(path)
    spans: list[tuple[int, int, int]] = []
    offset = _HEADER_SIZE
    for rec in scan.records:
        stop = offset + _FRAME.size + _BODY_HEAD.size + len(rec.payload)
        spans.append((offset, stop, rec.seq))
        offset = stop
    return spans


class WriteAheadJournal:
    """Append-only fsync'd operation log next to a container file.

    Open an existing journal with the constructor (it scans the file,
    truncates a torn tail, and raises on corruption of acknowledged
    records) or start a fresh one with :meth:`create`.  ``fsync=False``
    skips the durability syncs -- same torn-write atomicity against
    process crashes, no power-loss guarantee (mirrors
    :func:`~repro.storage.persistence.save_iqtree`).
    """

    def __init__(self, path, *, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        scan = scan_journal(self.path)
        if scan.dropped_bytes:
            with open(self.path, "r+b") as handle:
                handle.truncate(scan.valid_bytes)
                if fsync:
                    os.fsync(handle.fileno())
        if REGISTRY.enabled:
            WAL_RECOVERIES.inc(outcome=scan.outcome)
            WAL_SIZE.set(scan.valid_bytes)
        self.base_seq = scan.base_seq
        self._records = list(scan.records)
        self._size = scan.valid_bytes
        self._handle = None
        #: bytes appended (flushed) but not yet fsync'd -- the group
        #: commit window; :meth:`sync` drains it with one fsync.
        self._dirty = False

    @classmethod
    def create(cls, path, *, base_seq: int = 0, fsync: bool = True):
        """Atomically write a fresh (empty) journal and open it."""
        header = MAGIC_WAL + struct.pack("<Q", base_seq)
        blob = header + struct.pack("<I", _crc(header))
        _atomic_write(path, blob, fsync=fsync)
        return cls(path, fsync=fsync)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (or the reset base)."""
        return self._records[-1].seq if self._records else self.base_seq

    @property
    def n_records(self) -> int:
        return len(self._records)

    def records(self) -> tuple[JournalRecord, ...]:
        return tuple(self._records)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(
        self, op: int, payload: bytes, *, sync: bool | None = None,
        _writer=None,
    ) -> int:
        """Append one operation; returns its sequence number.

        With ``sync`` omitted (or True) the record is fsync'd (when
        enabled) before the sequence number is handed back -- the
        record counts as *acknowledged* when this method returns.  With
        ``sync=False`` the bytes are written and flushed but the fsync
        is deferred to a later :meth:`sync` -- the group-commit path:
        the record is torn-write-safe against a process crash but only
        acknowledged once the group fsync lands.  ``_writer`` is the
        torn-write fault hook -- it receives ``(handle, record)`` and
        may write a prefix and raise
        :class:`~repro.storage.faults.PowerLoss`, after which this
        journal object must be abandoned (reopen from disk to recover).
        """
        if op not in _OPS:
            raise StorageError(f"unknown journal op code {op}")
        seq = self.last_seq + 1
        record = _encode_record(seq, op, payload)
        handle = self._ensure_handle()
        if _writer is None:
            handle.write(record)
        else:
            _writer(handle, record)
        handle.flush()
        self._dirty = True
        if (sync is None or sync) and self.fsync:
            os.fsync(handle.fileno())
            self._dirty = False
            if REGISTRY.enabled:
                WAL_FSYNCS.inc()
        self._records.append(
            JournalRecord(seq, op, bytes(payload))
        )
        self._size += len(record)
        if REGISTRY.enabled:
            WAL_APPENDS.inc(op=_OPS[op])
            WAL_APPENDED_BYTES.inc(len(record))
            WAL_SIZE.set(self._size)
        return seq

    def sync(self) -> None:
        """Fsync any deferred appends in one call (the group commit).

        No-op when nothing was appended since the last fsync, so it is
        safe to call at every ack boundary.
        """
        if not self._dirty:
            return
        if self.fsync and self._handle is not None:
            os.fsync(self._handle.fileno())
            if REGISTRY.enabled:
                WAL_FSYNCS.inc()
        self._dirty = False

    def reset(self, base_seq: int) -> None:
        """Atomically replace the journal with an empty one.

        Called after a checkpoint recorded ``base_seq`` in the
        container: a crash before, during, or after the replacement is
        safe because replay filters records with ``seq <= wal_seq``.
        """
        self.close()
        header = MAGIC_WAL + struct.pack("<Q", base_seq)
        blob = header + struct.pack("<I", _crc(header))
        _atomic_write(self.path, blob, fsync=self.fsync)
        self.base_seq = base_seq
        self._records = []
        self._size = len(blob)
        self._dirty = False
        if REGISTRY.enabled:
            WAL_SIZE.set(self._size)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _ensure_handle(self):
        if self._handle is None:
            self._handle = open(self.path, "r+b")
            self._handle.seek(0, os.SEEK_END)
        return self._handle


class DurableTree:
    """A live IQ-tree whose maintenance operations are crash-safe.

    Wraps a tree, its container file, and the journal sidecar.  Use
    :meth:`create` to start from a built tree (saves the container,
    opens a fresh journal) and :meth:`open` to recover after a crash or
    restart (loads the container, replays the journal tail).  The
    answers contract: after any crash, :meth:`open` rebuilds a tree
    whose query answers are bit-identical to a crash-free replay of
    exactly the acknowledged operations.
    """

    def __init__(
        self, tree, path, journal: WriteAheadJournal, *, fsync=True,
        group_commit: int = 1,
    ):
        self.tree = tree
        self.path = Path(path)
        self.journal = journal
        self.fsync = fsync
        if int(group_commit) < 1:
            raise StorageError("group_commit must be >= 1")
        #: appends per fsync.  1 (default) fsyncs every append -- the
        #: original protocol.  G > 1 coalesces up to G appends into one
        #: group fsync; an operation is only *acknowledged* once its
        #: group's fsync lands (at the G-th append, a checkpoint, an
        #: explicit :meth:`sync`, or :meth:`close`).  Crash recovery
        #: still restores a prefix of the appended operations
        #: bit-identically -- only unacknowledged tail records can be
        #: lost.
        self.group_commit = int(group_commit)
        self._pending = 0
        #: records re-applied by :meth:`open` (0 for a clean start)
        self.recovered_ops = 0
        self._crash_points: set[str] = set()
        self._torn_append_budget: int | None = None
        self._torn_checkpoint_budget: int | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, tree, path, *, fsync: bool = True, group_commit: int = 1
    ) -> "DurableTree":
        """Persist ``tree`` and open an empty journal next to it."""
        from repro.storage.persistence import save_iqtree

        save_iqtree(tree, path, fsync=fsync)
        journal = WriteAheadJournal.create(
            wal_path(path), base_seq=tree._wal_seq, fsync=fsync
        )
        return cls(
            tree, path, journal, fsync=fsync, group_commit=group_commit
        )

    @classmethod
    def open(
        cls, path, *, disk=None, fsync: bool = True, group_commit: int = 1
    ) -> "DurableTree":
        """Load the container and replay the journal tail.

        Records with ``seq <= wal_seq`` (already folded into the
        container by a checkpoint) are skipped, so recovery is
        idempotent across every checkpoint crash window.  A missing
        journal (pre-journal container, or the sidecar was never
        created) starts an empty one.
        """
        tree = load_iqtree(path, disk)
        jpath = wal_path(path)
        if not jpath.exists():
            journal = WriteAheadJournal.create(
                jpath, base_seq=tree._wal_seq, fsync=fsync
            )
            return cls(
                tree, path, journal, fsync=fsync,
                group_commit=group_commit,
            )
        journal = WriteAheadJournal(jpath, fsync=fsync)
        store = cls(
            tree, path, journal, fsync=fsync, group_commit=group_commit
        )
        replayed = 0
        for rec in journal.records():
            if rec.seq <= tree._wal_seq:
                continue
            store._apply(rec)
            replayed += 1
        store.recovered_ops = replayed
        if REGISTRY.enabled and replayed:
            WAL_REPLAYED.inc(replayed)
        return store

    def close(self) -> None:
        self.sync()
        self.journal.close()

    def sync(self) -> None:
        """Fsync the current group; acknowledges every pending append."""
        self.journal.sync()
        self._pending = 0

    def _count_group_append(self) -> None:
        if self.group_commit <= 1:
            return
        self._pending += 1
        if self._pending >= self.group_commit:
            self.sync()

    def _apply(self, rec: JournalRecord) -> None:
        if rec.op == OP_INSERT:
            point = np.frombuffer(rec.payload, dtype="<f8")
            self.tree.insert(point)
        else:
            (point_id,) = struct.unpack("<q", rec.payload)
            self.tree.delete(point_id)

    # ------------------------------------------------------------------
    # Durable maintenance operations
    # ------------------------------------------------------------------
    def insert(self, point) -> int:
        """Journal, fsync, then apply one insert; returns the new id.

        The operation is acknowledged (= guaranteed to survive a crash)
        only when this method returns.
        """
        from repro.core.tree import canonicalize

        point = canonicalize(
            np.asarray(point, dtype=np.float64).reshape(-1)
        )
        if point.shape[0] != self.tree.dim:
            raise SearchError(
                f"point must have {self.tree.dim} dimensions, "
                f"got {point.shape[0]}"
            )
        payload = np.ascontiguousarray(point, dtype="<f8").tobytes()
        self._hook("insert:pre-append")
        self.journal.append(
            OP_INSERT, payload, sync=self.group_commit <= 1,
            _writer=self._take_torn_append(),
        )
        self._hook("insert:post-append")
        self._count_group_append()
        return self.tree.insert(point)

    def delete(self, point_id: int) -> None:
        """Journal, fsync, then apply one delete."""
        from repro.core.maintenance import locate_point

        point_id = int(point_id)
        if locate_point(self.tree, point_id) is None:
            raise SearchError(f"unknown point id: {point_id}")
        payload = struct.pack("<q", point_id)
        self._hook("delete:pre-append")
        self.journal.append(
            OP_DELETE, payload, sync=self.group_commit <= 1,
            _writer=self._take_torn_append(),
        )
        self._hook("delete:post-append")
        self._count_group_append()
        self.tree.delete(point_id)

    def checkpoint(self) -> None:
        """Fold the journal into the container, then reset the journal.

        Atomic at every boundary: the container save is temp + fsync +
        rename carrying ``wal_seq = last_seq``; the journal reset is
        its own atomic replace.  A crash anywhere in between recovers
        to the same acknowledged state (replay filters on ``wal_seq``).
        """
        previous = self.tree._wal_seq
        # Drain the group first: a checkpoint acknowledges everything
        # appended so far, so its records must be durable before the
        # journal is reset from under them.
        self.sync()
        try:
            self._hook("checkpoint:pre-save")
            self.tree._wal_seq = self.journal.last_seq
            blob = serialize_iqtree(self.tree)
            budget = self._torn_checkpoint_budget
            self._torn_checkpoint_budget = None
            if budget is None:
                _atomic_write(self.path, blob, fsync=self.fsync)
            else:

                def tearing_writer(handle, data: bytes) -> None:
                    handle.write(data[:budget])
                    handle.flush()
                    raise PowerLoss(
                        f"simulated power loss after "
                        f"{min(budget, len(data))} of {len(data)} "
                        f"checkpoint bytes"
                    )

                _atomic_write(
                    self.path, blob, fsync=self.fsync,
                    _writer=tearing_writer,
                )
            self._hook("checkpoint:post-save")
            self.journal.reset(self.tree._wal_seq)
            self._hook("checkpoint:post-reset")
        except BaseException:
            self.tree._wal_seq = previous
            if REGISTRY.enabled:
                WAL_CHECKPOINTS.inc(outcome="error")
            raise
        if REGISTRY.enabled:
            WAL_CHECKPOINTS.inc(outcome="ok")

    # ------------------------------------------------------------------
    # Fault injection (chaos harness)
    # ------------------------------------------------------------------
    def inject_crash(self, point: str) -> None:
        """Arm a :class:`PowerLoss` at a named protocol boundary."""
        if point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {point!r}; see CRASH_POINTS"
            )
        self._crash_points.add(point)

    def inject_torn_append(self, byte_budget: int) -> None:
        """Cut the power ``byte_budget`` bytes into the *next* append."""
        self._torn_append_budget = int(byte_budget)

    def inject_torn_checkpoint(self, byte_budget: int) -> None:
        """Cut the power mid-write of the next checkpoint's temp file."""
        self._torn_checkpoint_budget = int(byte_budget)

    def _hook(self, name: str) -> None:
        if name in self._crash_points:
            self._crash_points.discard(name)
            raise PowerLoss(f"simulated power loss at {name}")

    def _take_torn_append(self):
        budget = self._torn_append_budget
        if budget is None:
            return None
        self._torn_append_budget = None

        def tearing_writer(handle, record: bytes) -> None:
            handle.write(record[:budget])
            handle.flush()
            raise PowerLoss(
                f"simulated power loss after {min(budget, len(record))} "
                f"of {len(record)} journal bytes"
            )

        return tearing_writer

    def __repr__(self) -> str:
        return (
            f"DurableTree({self.path.name}, seq={self.journal.last_seq}, "
            f"checkpointed={self.tree._wal_seq})"
        )
