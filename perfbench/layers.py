"""Per-layer metric values from a traced pass.

Times are host milliseconds per request of the kind the layer serves:
per build for the set-up layers, per public kNN call (one ``nearest``
or one ``knn_batch``) for the query layers, per journaled write,
sweep, checkpoint or open for the others.  A layer's time is its total
(inclusive) time unless the name says ``self``; counts are per request
too.  A layer the workload never reaches reads 0.
"""

from __future__ import annotations

from perfbench.metrics import mean, percentile, pool_means

KNN = ("nearest", "knn_batch")
WRITES = ("insert", "delete")


def _per(reqs, layer: str, field: int = 1, scale: float = 1e3) -> float:
    """Mean of one layer field (0 calls, 1 total s, 2 self s) per request."""
    if not reqs:
        return 0.0
    return scale * sum(r.layer(layer)[field] for r in reqs) / len(reqs)


def _self_ms(reqs) -> float:
    if not reqs:
        return 0.0
    return 1e3 * sum(r.wall - r.child for r in reqs) / len(reqs)


def _wall_ms(reqs) -> float:
    return 1e3 * sum(r.wall for r in reqs) / len(reqs) if reqs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer, traced, untraced) -> dict:
    """Every per-layer metric of :data:`perfbench.metrics.PER_LAYER`."""
    from perfbench.workloads import K

    builds = tracer.of_kind("build")
    knn = tracer.of_kind(*KNN)
    writes = tracer.of_kind(*WRITES)
    sweeps = tracer.of_kind("sweep")
    checkpoints = tracer.of_kind("checkpoint")
    opens = tracer.of_kind("open")
    n_knn = len(traced.ledger)
    seeks = sum(e[0] for e in traced.ledger)
    blocks = sum(e[1] for e in traced.ledger)
    overread = sum(e[2] for e in traced.ledger)
    refinements = sum(e[5] for e in traced.ledger)
    hits, misses = traced.cache
    n_sweeps = len(traced.sweeps)

    def ops_per_s(tally) -> float:
        return (tally.queries + tally.writes) / tally.wall

    return {
        "costmodel.fractal.ms": _per(builds, "costmodel.fractal"),
        "core.build.ms": _per(builds, "core.build"),
        "core.optimizer.ms": _per(builds, "core.optimizer"),
        "core.optimizer.codec_ms": _per(builds, "core.optimizer.codec"),
        "quantization.codecs.fit_pq_ms": _per(
            builds, "quantization.codecs.fit_pq"),
        "storage.serializer.encode_ms": _per(
            builds, "storage.serializer.encode"),
        "storage.serializer.relayout_encode_ms": _per(
            knn, "storage.serializer.encode"),
        "geometry.mbr.directory_ms": _per(knn, "geometry.mbr.directory"),
        "storage.scheduler.ms": _per(knn, "storage.scheduler"),
        "costmodel.access_probability.calls": _per(
            knn, "costmodel.access_probability", field=0, scale=1),
        "storage.serializer.decode_ms": _per(knn, "storage.serializer.decode"),
        "storage.serializer.pages_decoded": _per(
            knn, "storage.serializer.decode", field=0, scale=1),
        "quantization.cell_bounds_ms": _per(knn, "quantization.cell_bounds"),
        "quantization.cells_bounded": _ratio(
            sum(r.counts.get("quantization.cells_bounded", 0) for r in knn),
            len(knn)),
        "core.search.refine_ms": _per(knn, "core.search.refine"),
        "core.search.refinements": _ratio(refinements, n_knn),
        "core.search.refine_useful_ratio": _ratio(
            K * traced.queries, refinements),
        "core.search.self_ms": _self_ms(tracer.of_kind("nearest")),
        "engine.engine.self_ms": _self_ms(tracer.of_kind("knn_batch")),
        "engine.decode.load_ms": _per(knn, "engine.decode.load"),
        "engine.decode.bounds_ms": _per(knn, "engine.decode.bounds"),
        "engine.decode.refine_ms": _per(knn, "engine.decode.refine"),
        "engine.concurrent.plan_ms": _per(knn, "engine.concurrent.plan"),
        "engine.concurrent.assemble_ms": _per(
            knn, "engine.concurrent.assemble"),
        "engine.page_cache.hit_ratio": _ratio(hits, hits + misses),
        "storage.disk.seeks": _ratio(seeks, n_knn),
        "storage.disk.blocks": _ratio(blocks, n_knn),
        "storage.disk.overread_ratio": _ratio(overread, blocks),
        "storage.disk.read_ms": _per(knn, "storage.disk.read"),
        "storage.journal.append_ms": _per(
            writes, "storage.journal.append", field=2),
        "storage.journal.fsync_ms": _per(writes, "storage.journal.fsync"),
        "core.tree.apply_ms": _per(writes, "core.tree.apply"),
        "storage.journal.bytes_per_user_byte": mean(traced.journal_share),
        "core.maintenance.sweep_ms": _wall_ms(sweeps),
        "core.maintenance.pages_requantized": _ratio(
            sum(s[1] for s in traced.sweeps), n_sweeps),
        "core.maintenance.pages_restructured": _ratio(
            sum(s[2] for s in traced.sweeps), n_sweeps),
        "storage.persistence.checkpoint_ms": _wall_ms(checkpoints),
        "storage.persistence.checkpoint_bytes_per_user_byte": mean(
            traced.checkpoint_bytes),
        "storage.journal.replay_records": mean(traced.replayed),
        "storage.persistence.load_ms": _per(opens, "storage.persistence.load"),
        "trace.coverage": tracer.coverage(
            KNN + WRITES + ("sweep", "checkpoint", "open")),
        "trace.overhead_knn_p50_ms": 1e3 * (
            percentile(pool_means(traced.knn_lat, traced.knn_ids), 50)
            - percentile(pool_means(untraced.knn_lat, untraced.knn_ids), 50)),
        "trace.overhead_ops_per_s": ops_per_s(traced) - ops_per_s(untraced),
    }
