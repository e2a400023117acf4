"""Metric definitions: names, units, and which end-to-end number each
per-layer number should move on which workload.

``BENCHMARK.json`` lists the same names; its schema has no room for the
per-layer -> end-to-end mapping, so it lives here and is printed with
every traced run.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("knn-single", "knn-batch", "write-mix")
ALL = WORKLOADS  # a per-layer metric that applies to every workload

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "knn_p50_ms": ("ms", "lower"),
    "knn_tail_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "sim_ms_per_query": ("ms", "lower"),
    "write_cpu_ms": ("ms", "lower"),
    "recovery_s": ("s", "lower"),
    "space_amp": ("ratio", "lower"),
}

#: name -> (unit, better, end-to-end metrics it should move, workloads)
PER_LAYER = {
    "costmodel.fractal.ms": ("ms", "lower", ("setup_s", "peak_rss_mb"), ALL),
    "core.build.ms": ("ms", "lower", ("setup_s",), ALL),
    "core.optimizer.ms": ("ms", "lower", ("setup_s",), ALL),
    "core.optimizer.codec_ms": ("ms", "lower", ("setup_s",), ("knn-batch",)),
    "quantization.codecs.fit_pq_ms": ("ms", "lower", ("setup_s",), ("knn-batch",)),
    "storage.serializer.encode_ms": ("ms", "lower", ("setup_s",), ALL),
    "storage.serializer.relayout_encode_ms": (
        "ms", "lower", ("knn_tail_ms",), ("write-mix",)),
    "geometry.mbr.directory_ms": ("ms", "lower", ("knn_p50_ms",), ALL),
    "storage.scheduler.ms": (
        "ms", "lower", ("knn_p50_ms",), ("knn-single", "write-mix")),
    "costmodel.access_probability.calls": (
        "count", "lower", ("knn_p50_ms",), ("knn-single", "write-mix")),
    "storage.serializer.decode_ms": ("ms", "lower", ("knn_p50_ms",), ("knn-single",)),
    "storage.serializer.pages_decoded": (
        "count", "lower", ("knn_p50_ms",), ("knn-single",)),
    "quantization.cell_bounds_ms": (
        "ms", "lower", ("knn_p50_ms", "ops_per_s"), ("knn-single", "knn-batch")),
    "quantization.cells_bounded": (
        "count", "lower", ("knn_p50_ms", "ops_per_s"), ("knn-single", "knn-batch")),
    "core.search.refine_ms": (
        "ms", "lower", ("knn_p50_ms", "sim_ms_per_query"), ("knn-single", "write-mix")),
    "core.search.refinements": (
        "count", "lower", ("knn_p50_ms", "sim_ms_per_query"), ALL),
    "core.search.refine_useful_ratio": (
        "ratio", "higher", ("knn_p50_ms", "sim_ms_per_query"), ALL),
    "core.search.self_ms": ("ms", "lower", ("knn_p50_ms",), ("knn-single",)),
    "engine.engine.self_ms": ("ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.decode.load_ms": ("ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.decode.bounds_ms": ("ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.decode.refine_ms": ("ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.concurrent.plan_ms": ("ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.concurrent.assemble_ms": (
        "ms", "lower", ("ops_per_s", "knn_p50_ms"), ("knn-batch",)),
    "engine.page_cache.hit_ratio": (
        "ratio", "higher", ("knn_p50_ms",), ("knn-single", "knn-batch")),
    "storage.disk.seeks": ("count", "lower", ("sim_ms_per_query",), ALL),
    "storage.disk.blocks": ("count", "lower", ("sim_ms_per_query",), ALL),
    "storage.disk.overread_ratio": ("ratio", "lower", ("sim_ms_per_query",), ALL),
    "storage.disk.read_ms": ("ms", "lower", ("sim_ms_per_query",), ALL),
    "storage.journal.append_ms": ("ms", "lower", ("write_cpu_ms",), ALL),
    # the write wall latencies are printed with every run, but not gated
    "storage.journal.fsync_ms": ("ms", "lower", ("write_p50_ms", "write_tail_ms"), ALL),
    "core.tree.apply_ms": ("ms", "lower", ("write_cpu_ms",), ALL),
    "storage.journal.bytes_per_user_byte": ("ratio", "lower", ("space_amp",), ALL),
    "core.maintenance.sweep_ms": ("ms", "lower", ("ops_per_s", "knn_tail_ms"), ("write-mix",)),
    "core.maintenance.pages_requantized": (
        "count", "lower", ("ops_per_s", "knn_tail_ms"), ("write-mix",)),
    "core.maintenance.pages_restructured": (
        "count", "lower", ("ops_per_s", "knn_tail_ms"), ("write-mix",)),
    "storage.persistence.checkpoint_ms": (
        "ms", "lower", ("ops_per_s", "knn_tail_ms"), ("write-mix",)),
    "storage.persistence.checkpoint_bytes_per_user_byte": (
        "ratio", "lower", ("ops_per_s", "knn_tail_ms"), ("write-mix",)),
    "storage.journal.replay_records": ("count", "lower", ("recovery_s",), ALL),
    "storage.persistence.load_ms": ("ms", "lower", ("recovery_s",), ALL),
    "trace.coverage": ("ratio", "higher", (), ALL),
    "trace.overhead_knn_p50_ms": ("ms", "lower", ("knn_p50_ms",), ALL),
    "trace.overhead_ops_per_s": ("1/s", "higher", ("ops_per_s",), ALL),
}


def mapping() -> dict:
    """Per-layer metric -> {"moves": [...], "workloads": [...]}."""
    return {
        name: {"moves": list(moves), "workloads": list(workloads)}
        for name, (_u, _b, moves, workloads) in PER_LAYER.items()
    }


def percentile(samples, q: float) -> float:
    """``q``-th percentile of ``samples`` (linear interpolation); 0 when
    there are none (every such operation failed, so the run reports
    ``correct: false``)."""
    if len(samples) == 0:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def pool_means(samples, ids) -> np.ndarray:
    """Each distinct id's mean sample, for a pool of repeated calls.

    Percentiles over these are percentiles over the pool's members.
    Each member's repeats are spread over the pass, so its mean mixes
    the host's slow and fast phases instead of landing in one of them.
    """
    if len(samples) == 0:
        return np.zeros(0)
    _, member = np.unique(np.asarray(ids), return_inverse=True)
    sums = np.bincount(member, weights=np.asarray(samples, dtype=np.float64))
    return sums / np.bincount(member)


def mean(samples) -> float:
    """Arithmetic mean of ``samples``; 0 when there are none."""
    return float(np.mean(samples)) if len(samples) else 0.0


def beyond(n: int, q: float) -> int:
    """Samples above the ``q``-th percentile of ``n`` samples."""
    return int(n * (1.0 - q / 100.0))


def with_units(values: dict, table: dict) -> dict:
    """``{name: {"value": v, "unit": u}}`` in ``table`` order."""
    return {
        name: {"value": float(values[name]), "unit": spec[0]}
        for name, spec in table.items()
    }
