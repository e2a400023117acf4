"""Zero-copy shipment of large numpy arrays to worker processes.

A parallel :class:`~repro.engine.concurrent.WorkerPool` must get
a batch's read-only inputs -- decoded code matrices, cell-bound boxes,
query rows -- into its workers.  Pickling them into every task payload
would serialize megabytes on the coordinator per shard; instead the
engine *freezes* them once per batch into a :class:`SharedArena`: a
single memory-backed file (``/dev/shm`` when available, the default
temp directory otherwise) that workers ``mmap`` read-only and wrap in
numpy views without copying.  A frozen array travels inside the task as
a tiny :class:`ArrayRef` descriptor (path, offset, shape, dtype).

The arena is plain-file based on purpose: unlike
:mod:`multiprocessing.shared_memory` it involves no resource-tracker
process (whose attach-side registration is known to misbehave across
fork), cleanup is one ``os.unlink`` by the coordinator, and a worker
holding a mapping of an unlinked arena keeps reading valid memory until
the mapping is dropped -- standard POSIX semantics.

Workers cache their mappings per arena path (an engine reuses one arena
for both phases of a batch), evicting least-recently-used mappings so a
long-lived worker does not accumulate files' worth of address space.

Everything degrades gracefully: if the arena file cannot be written the
caller simply ships the arrays inline (pickle), which is slower but
correct -- :func:`resolve` passes real arrays through untouched.
"""

from __future__ import annotations

import mmap
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

__all__ = ["ArrayRef", "SharedArena", "resolve"]

#: preferred directory for arena files (memory-backed on Linux)
_SHM_DIR = "/dev/shm"

#: per-process cache of read-only arena mappings, LRU over paths
_MAPPINGS: OrderedDict[str, mmap.mmap] = OrderedDict()
_MAX_MAPPINGS = 4


@dataclass(frozen=True)
class ArrayRef:
    """A frozen array: where it lives inside an arena file."""

    path: str
    offset: int
    shape: tuple
    dtype: str

    def load(self) -> np.ndarray:
        """A read-only numpy view of the frozen array (no copy)."""
        buf = _mapping_for(self.path)
        arr = np.frombuffer(
            buf,
            dtype=np.dtype(self.dtype),
            count=int(np.prod(self.shape, dtype=np.int64)),
            offset=self.offset,
        )
        return arr.reshape(self.shape)


def _mapping_for(path: str) -> mmap.mmap:
    """The process-local read-only mapping of one arena file."""
    cached = _MAPPINGS.get(path)
    if cached is not None:
        _MAPPINGS.move_to_end(path)
        return cached
    with open(path, "rb") as f:
        mapping = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    _MAPPINGS[path] = mapping
    while len(_MAPPINGS) > _MAX_MAPPINGS:
        _path, old = _MAPPINGS.popitem(last=False)
        try:
            old.close()
        except BufferError:
            # A live numpy view still points into the mapping; the
            # mapping is released when the last view dies instead.
            pass
    return mapping


def resolve(obj):
    """Materialize an :class:`ArrayRef`; pass anything else through."""
    if isinstance(obj, ArrayRef):
        return obj.load()
    return obj


class SharedArena:
    """One write-once arena file holding a batch's frozen arrays.

    Usage: ``put`` every array (returns its :class:`ArrayRef`), then
    ``seal()`` before handing refs to workers, and ``dispose()`` when
    the batch is done.  ``SharedArena.create()`` returns ``None`` when
    no arena file can be created; callers then ship arrays inline.
    """

    def __init__(self, path: str, file):
        self.path = path
        self._file = file
        self._offset = 0
        self.sealed = False
        self.disposed = False

    @classmethod
    def create(cls) -> "SharedArena | None":
        for directory in (_SHM_DIR, None):
            if directory is not None and not os.path.isdir(directory):
                continue
            try:
                fd, path = tempfile.mkstemp(
                    prefix="iq-arena-", suffix=".bin", dir=directory
                )
                return cls(path, os.fdopen(fd, "wb"))
            except OSError:
                continue
        return None

    def put(self, array: np.ndarray) -> ArrayRef:
        """Append one array; returns the descriptor workers load from."""
        if self.sealed:
            raise ValueError("arena is sealed")
        data = np.ascontiguousarray(array)
        ref = ArrayRef(
            path=self.path,
            offset=self._offset,
            shape=tuple(data.shape),
            dtype=data.dtype.str,
        )
        self._file.write(memoryview(data).cast("B"))
        self._offset += data.nbytes
        return ref

    def seal(self) -> None:
        """Flush and close the write handle; refs become loadable."""
        if not self.sealed:
            self._file.flush()
            self._file.close()
            self.sealed = True

    def dispose(self) -> None:
        """Unlink the arena file (mappings already held stay valid).

        Idempotent and unconditional: the unlink happens even when the
        write handle is in a broken state (a worker raising mid-phase
        can leave the coordinator disposing an arena whose ``seal()``
        would fail), so an abnormal batch teardown never leaks arena
        files into ``/dev/shm`` or the temp directory.
        """
        if self.disposed:
            return
        self.disposed = True
        try:
            self.seal()
        except (OSError, ValueError):
            # A failed flush/close must not keep the file on disk; mark
            # the arena sealed so no further writes are attempted.
            self.sealed = True
        try:
            os.unlink(self.path)
        except OSError:
            pass
        # The coordinator may have loaded its own refs (workers=1 runs
        # resolve in-process); drop its cached mapping eagerly.
        mapping = _MAPPINGS.pop(self.path, None)
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.dispose()

    def __del__(self):
        # Last-resort finalizer: an arena abandoned by an exception
        # between create() and the dispose() in the engine's finally
        # block (or by a caller without one) is still unlinked when the
        # object is collected.  Never raise from a finalizer.
        try:
            self.dispose()
        except Exception:
            pass
