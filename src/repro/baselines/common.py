"""Shared result type and helpers for the baseline methods."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.storage.disk import IOStats, io_delta, io_snapshot

__all__ = ["QueryAnswer", "io_snapshot", "io_delta"]


@dataclass
class QueryAnswer:
    """A k-NN answer with its simulated-I/O accounting.

    Attributes
    ----------
    ids:
        Point ids in ascending distance order.
    distances:
        Matching distances.
    io:
        Simulated-I/O delta of this query.
    refinements:
        Exact-record look-ups (methods without a refinement phase
        report 0).
    """

    ids: np.ndarray
    distances: np.ndarray
    io: IOStats
    refinements: int = 0
