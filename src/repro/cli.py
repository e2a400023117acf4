"""Top-level command line: build, query, and inspect persisted indexes.

Usage::

    python -m repro build  data.npy index.iqt [--metric l2] [--no-optimize]
    python -m repro query  index.iqt --point 0.1,0.2,... [--k 5]
    python -m repro query  index.iqt --random 3 [--k 5]
    python -m repro batch  index.iqt --random 50 [--k 5] [--pool 256]
    python -m repro batch  index.iqt --random 50 --workers 4 [--decode-cache 4194304]
    python -m repro batch  index.iqt --random 50 --radius 0.2 [--compare]
    python -m repro batch  index.iqt --random 50 --shards 4 [--kill-shard 0] [--compare]
    python -m repro info   index.iqt
    python -m repro fsck   index.iqt
    python -m repro validate index.iqt [--queries 10]
    python -m repro stats  index.iqt --random 50 [--format prometheus]
    python -m repro stats  index.iqt --slo lat=iq_query_simulated_seconds:p99<=0.05
    python -m repro trace  index.iqt [--k 5] [--json]
    python -m repro trace  index.iqt --export chrome --shards 4 --workers 2
    python -m repro flight index.iqt --shards 4 --kill-shard 0
    python -m repro flight index.iqt --single [--pool 64]
    python -m repro chaos  index.iqt [--kinds transient] [--levels exact]
    python -m repro chaos  index.iqt --writes [--ops 40] [--group-commit 4]

``data.npy`` is any ``numpy.save``-ed ``(n, d)`` float array.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from repro import obs
from repro.core.tree import IQTree
from repro.storage.persistence import (
    load_iqtree,
    save_iqtree,
    verify_container,
)

__all__ = ["main"]


def _cmd_build(args: argparse.Namespace) -> int:
    data = np.load(args.data)
    tree = IQTree.build(
        data,
        metric=args.metric,
        optimize=not args.no_optimize and args.bits is None,
        fixed_bits=args.bits,
        fractal_dim=None if args.uniform_model else "auto",
        codec=args.codec,
    )
    save_iqtree(tree, args.index)
    bits, counts = np.unique(tree.page_bits, return_counts=True)
    print(
        f"built {tree!r}\n"
        f"page resolutions: "
        f"{dict(zip(bits.tolist(), counts.tolist()))}\n"
        f"saved to {args.index}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    if args.point:
        queries = [np.array([float(x) for x in args.point.split(",")])]
    else:
        queries = _random_queries(tree, args.random, args.seed)
    for query in queries:
        result = tree.nearest(query, k=args.k)
        pairs = ", ".join(
            f"{pid} (d={dist:.4f})"
            for pid, dist in zip(result.ids, result.distances)
        )
        print(
            f"query -> {pairs}  [{result.io.elapsed * 1e3:.2f} ms "
            f"simulated, {result.pages_read} pages, "
            f"{result.refinements} refinements]"
        )
    return 0


def _random_queries(tree, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lo = tree.points.min(axis=0)
    hi = tree.points.max(axis=0)
    return lo + rng.random((count, tree.dim)) * (hi - lo)


def _load_workload(args: argparse.Namespace):
    """The index and the command's ``--random``/``--seed`` query batch."""
    tree = load_iqtree(args.index)
    return tree, _random_queries(tree, args.random, args.seed)


@contextmanager
def _serving(args: argparse.Namespace, tree, kill=()):
    """Open the engine or shard router a command's flags describe.

    ``--shards`` selects a :class:`~repro.engine.ShardRouter` (``--pool``
    and ``--decode-cache`` become per-shard budgets) with the ``kill``
    shard indices taken down; otherwise a
    :class:`~repro.engine.QueryEngine`.  A flag the command lacks keeps
    its library default.  The worker pool is closed on every exit path.
    """
    options = {
        "pool": getattr(args, "pool", None),
        "workers": getattr(args, "workers", 1),
        "decode_cache": getattr(args, "decode_cache", None),
    }
    shards = getattr(args, "shards", None)
    if shards is None:
        target, kill = tree.query_engine(**options), ()
    else:
        from repro.engine import ShardRouter

        target = ShardRouter(tree, shards=shards, **options)
    try:
        for index in kill:
            if not 0 <= index < target.n_shards:
                raise SystemExit(
                    f"shard index {index} out of range (router has "
                    f"{target.n_shards} shards; the count clamps to the "
                    f"page count)"
                )
            target.kill_shard(index)
        yield target
    finally:
        target.close()


def _cmd_batch(args: argparse.Namespace) -> int:
    tree, queries = _load_workload(args)
    with _serving(args, tree, kill=args.kill_shard or ()) as target:
        if args.radius is not None:
            result = target.range_batch(queries, args.radius)
            kind = f"range r={args.radius}"
        else:
            result = target.knn_batch(queries, k=args.k)
            kind = f"{args.k}-NN"
    stats = result.stats
    workers = f"{stats.workers} worker{'s' if stats.workers != 1 else ''}"
    cost = (
        f"{stats.io.elapsed * 1e3:.2f} ms simulated "
        f"({stats.mean_time * 1e3:.3f} ms/query), "
        f"{stats.io.seeks} seeks, {stats.pages_read} pages, "
        f"{stats.refinements} refinements"
    )
    if args.shards is None:
        print(
            f"batch of {stats.n_queries} {kind} queries ({workers}): "
            f"{cost}, {stats.bytes_transferred} bytes"
        )
    else:
        routing = result.routing
        alive = sum(1 for s in target.shards if s.alive)
        print(
            f"sharded batch of {stats.n_queries} {kind} queries over "
            f"{target.n_shards} shards ({alive} alive, {workers}): {cost}"
        )
        mean_contacted = (
            float(routing.contacted.mean()) if len(result) else 0.0
        )
        print(
            f"routing: visit order {routing.visit_order}, "
            f"{mean_contacted:.2f} shards contacted/query, "
            f"{routing.skipped} shard visits pruned"
            + (f", dead shards {list(routing.dead)}" if routing.dead else "")
        )
        degraded = sum(1 for r in result if r.degraded)
        if degraded:
            print(
                f"degraded answers: {degraded}/{stats.n_queries} "
                f"({stats.lost_pages} lost-page reports with global "
                f"mindist/maxdist bounds)"
            )
    if stats.pool_hits or stats.pool_misses:
        print(
            f"buffer pool: {stats.pool_hits} hits / "
            f"{stats.pool_misses} misses "
            f"(hit rate {stats.pool_hit_rate:.2f})"
        )
    if stats.decoded_pages_reused:
        print(
            f"decoded-page cache: {stats.decoded_pages_reused} pages "
            f"reused, {stats.pages_read} fetched "
            f"(reuse rate {stats.decode_reuse_rate:.2f})"
        )
    if args.compare:
        seq = load_iqtree(args.index)
        before = seq.disk.stats.elapsed, seq.disk.stats.seeks
        for query in queries:
            seq.disk.park()
            if args.radius is not None:
                seq.range_query(query, args.radius)
            else:
                seq.nearest(query, k=args.k)
        elapsed = seq.disk.stats.elapsed - before[0]
        seeks = seq.disk.stats.seeks - before[1]
        speedup = elapsed / stats.io.elapsed if stats.io.elapsed else float("inf")
        print(
            f"sequential loop: {elapsed * 1e3:.2f} ms simulated, "
            f"{seeks} seeks ({speedup:.1f}x slower than batched)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    tree = load_iqtree(args.index)
    bits, counts = np.unique(tree.page_bits, return_counts=True)
    sizes = tree.size_summary()
    est = tree.estimated_query_cost()
    print(f"{tree!r}")
    print(f"metric: {tree.metric.name}")
    print(f"fractal dimension (model): {tree.cost_model.fractal_dim:.2f}")
    print(
        f"page resolutions: {dict(zip(bits.tolist(), counts.tolist()))}"
    )
    print(
        f"blocks: directory={sizes['directory_blocks']} "
        f"quantized={sizes['quantized_blocks']} "
        f"exact={sizes['exact_blocks']}"
    )
    print(
        f"estimated query cost: {est.total * 1e3:.2f} ms "
        f"(T1={est.first_level * 1e3:.2f}, T2={est.second_level * 1e3:.2f}, "
        f"T3={est.refinement * 1e3:.2f})"
    )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    report = verify_container(args.index, expect_codec=args.codec)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_cost_model

    tree = load_iqtree(args.index)
    rng = np.random.default_rng(args.seed)
    picks = rng.choice(
        tree.n_points, size=min(args.queries, tree.n_points), replace=False
    )
    queries = tree.points[picks]
    validation = validate_cost_model(tree, queries, k=args.k)
    print(validation.summary())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    obs.registry.reset()
    obs.drift.reset()
    obs.enable()
    burning = 0
    try:
        tree, queries = _load_workload(args)
        with _serving(args, tree) as engine:
            engine.knn_batch(queries, k=args.k)
        statuses = None
        if args.slo:
            monitor = obs.SLOMonitor(args.slo)
            statuses = monitor.evaluate()
            burning = sum(1 for s in statuses if not s.met)
        if args.format == "json":
            payload = obs.registry.collect()
            if args.drift:
                payload["drift"] = obs.drift.report().to_dict()
            print(json.dumps(payload, indent=2))
        else:
            sys.stdout.write(obs.registry.to_prometheus())
            if args.drift:
                print(f"\n{obs.drift.report().summary()}")
        if statuses is not None:
            for status in statuses:
                print(status.describe(), file=sys.stderr)
    finally:
        obs.disable()
    return 1 if burning else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    tree, queries = _load_workload(args)
    name = f"knn-batch k={args.k}"
    with _serving(args, tree) as target:
        if args.shards is not None:
            name += f" shards={target.n_shards}"
        with obs.trace_query(target, name=name) as tracer:
            result = target.knn_batch(queries, k=args.k)

    # The attribution invariant always gets checked; when the span tree
    # itself goes to stdout (export / json), the report moves to stderr
    # so the payload stays machine-readable.
    report = sys.stderr if (args.export or args.json) else sys.stdout
    root = tracer.root
    own = sum((s.own_io for s in root.walk()), start=obs.SpanIO())
    ledger = result.stats.io
    ok = (
        abs(own.elapsed - ledger.elapsed) < 1e-9
        and own.seeks == ledger.seeks
        and own.blocks_read == ledger.blocks_read
    )

    if args.export:
        payload = json.dumps(obs.export_trace(tracer, args.export), indent=2)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(f"wrote {args.export} trace to {args.out}", file=report)
        else:
            print(payload)
    elif args.json:
        print(tracer.to_json())
    else:
        print(tracer.render())
    print(
        f"\nspan own-I/O sum: {own.elapsed * 1e3:.2f} ms, "
        f"{own.seeks} seeks, {own.blocks_read} blocks",
        file=report,
    )
    print(
        f"IOStats ledger:   {ledger.elapsed * 1e3:.2f} ms, "
        f"{ledger.seeks} seeks, {ledger.blocks_read} blocks",
        file=report,
    )
    print(f"attribution {'consistent' if ok else 'MISMATCH'}", file=report)
    return 0 if ok else 1


def _cmd_flight(args: argparse.Namespace) -> int:
    tree, queries = _load_workload(args)
    recorder = obs.FlightRecorder(
        capacity=args.capacity,
        slow_threshold=args.slow_threshold,
        top_slow=args.top_slow,
    )
    with _serving(args, tree, kill=args.kill_shard or ()) as target:
        # A router records its own batches; an engine's land on the tree,
        # which --single queries directly (the engine attached --pool).
        host = tree if args.shards is None else target
        host.use_flight_recorder(recorder)
        try:
            if args.single and args.shards is None:
                for query in queries:
                    tree.nearest(query, k=args.k)
            else:
                target.knn_batch(queries, k=args.k)
        finally:
            host.clear_flight_recorder()
    print(recorder.to_json())
    print(
        f"flight recorder: {recorder.recorded} recorded, "
        f"{recorder.dropped} dropped, {len(recorder)} resident "
        f"(capacity {recorder.capacity})",
        file=sys.stderr,
    )
    return 0


_CHAOS_KINDS = ("transient", "persistent", "corrupt")
_CHAOS_LEVELS = ("quantized", "exact")


def _chaos_schedule(injector, kind: str, address: int) -> None:
    if kind == "transient":
        injector.fail_once(address)
    elif kind == "persistent":
        injector.fail_always(address)
    else:  # corrupt: silent payload damage, caught by the CRC sidecar
        injector.corrupt_always(address)


def _certain_problems(tree, query, result) -> list[str]:
    """Every result flagged certain must carry its exact distance."""
    problems = []
    for pos, pid in enumerate(result.ids.tolist()):
        if result.certain is None or not result.certain[pos]:
            continue
        true_dist = tree.metric.distance(query, tree.points[pid])
        if abs(result.distances[pos] - true_dist) > 1e-9:
            problems.append(f"certain result {pid} reports a wrong distance")
    return problems


def _flight_problems(recorder, degraded: int) -> list[str]:
    """The flight recorder must have seen every degraded result."""
    seen = len(recorder.records("degraded"))
    if seen == degraded:
        return []
    return [
        f"flight recorder captured {seen} degraded records but the run "
        f"observed {degraded} degraded results"
    ]


def _answer_problems(want, got, what: str) -> list[str]:
    """One problem per query whose ids or distances are not bit-identical."""
    problems = []
    for i, (w, g) in enumerate(zip(want, got)):
        if not np.array_equal(w.ids, g.ids):
            problems.append(f"query {i}: {what} ids differ")
        elif not np.array_equal(w.distances, g.distances):
            problems.append(f"query {i}: {what} distances differ")
    return problems


def _report(head: str, problems, detail: str) -> bool:
    """Print one chaos cell's verdict and problems; True when it failed."""
    print(f"  {head} {'FAIL' if problems else 'ok'}  {detail}")
    for problem in problems:
        print(f"      !! {problem}")
    return bool(problems)


def _chaos_workload(tree, queries, k, radius):
    """Run the chaos probe queries: ``((kind, i), query, result)`` each."""
    for i, query in enumerate(queries):
        yield ("knn", i), query, tree.nearest(query, k=k)
        if radius is not None:
            yield ("range", i), query, tree.range_query(query, radius)


def _chaos_check(tree, query, result, base, kind: str) -> list[str]:
    """Verify one degraded-mode result against the robustness contract."""
    problems: list[str] = []
    if kind == "transient" and result.degraded:
        problems.append("transient fault did not retry to an exact answer")
    if not result.degraded:
        same = result.ids.tolist() == base.ids.tolist() and np.allclose(
            result.distances, base.distances, atol=1e-9
        )
        if not same:
            problems.append("non-degraded result differs from baseline")
        return problems
    problems += _certain_problems(tree, query, result)
    intervals, certain = result.intervals or {}, result.certain
    for pos, pid in enumerate(result.ids.tolist()):
        if pid not in intervals or (certain is not None and certain[pos]):
            continue
        lo, hi = intervals[pid]
        true_dist = tree.metric.distance(query, tree.points[pid])
        if not (lo - 1e-9 <= true_dist <= hi + 1e-9):
            problems.append(
                f"interval [{lo:.4f}, {hi:.4f}] of point {pid} "
                f"misses its true distance {true_dist:.4f}"
            )
    return problems


def _chaos_run(
    tree, queries, k, radius, kind, level, address, policy, baseline
):
    """Execute the query workload under one fault schedule."""
    from repro.storage.faults import ReadFaultInjector

    injector = ReadFaultInjector()
    _chaos_schedule(injector, kind, address)
    tree.disk.install_fault_injector(injector)
    ctx = tree.use_fault_tolerance(policy)
    # Flight recorder in chaos-verification mode: relative slow capture
    # off, so every record is a degraded/faulted postmortem we can
    # count against the observed results.
    recorder = tree.use_flight_recorder(
        obs.FlightRecorder(capacity=4096, top_slow=0)
    )
    problems: list[str] = []
    degraded = lost = 0
    try:
        for key, query, result in _chaos_workload(tree, queries, k, radius):
            problems += _chaos_check(tree, query, result, baseline[key], kind)
            degraded += bool(result.degraded)
            lost += len(result.lost_pages)
    except Exception as exc:  # noqa: BLE001 -- no schedule may crash
        problems.append(f"workload crashed: {type(exc).__name__}: {exc}")
    finally:
        tree.disk.clear_fault_injector()
        tree.clear_fault_tolerance()
        tree.clear_flight_recorder()
    if kind == "transient" and ctx.retries == 0:
        problems.append("transient schedule never triggered a retry")
    if kind != "transient" and not (degraded or lost):
        problems.append(f"{kind} schedule degraded no result")
    problems += _flight_problems(recorder, degraded)
    if (ctx.retries or ctx.quarantined) and not recorder.records("faulted"):
        problems.append(
            "fault tolerance retried/quarantined but the flight "
            "recorder captured no faulted record"
        )
    counters = (ctx.retries, ctx.quarantined, ctx.degraded_results, ctx.lost_pages)
    return problems, degraded, lost, counters


def _chaos_sharded(args: argparse.Namespace, tree, queries, k) -> int:
    """Shard-kill chaos: degraded answers must contain the truth.

    Kills the requested shards of a ShardRouter, then verifies for
    every query that (a) each true neighbor is either returned exactly
    or covered by a reported lost page whose ``[mindist, maxdist]``
    interval contains its true distance, (b) results flagged certain
    carry exact distances, and (c) after reviving every shard the
    answers match the pristine single-tree baseline bit-exactly.
    Returns non-zero when any check fails.
    """
    kill = [int(s) for s in args.kill_shards.split(",") if s != ""]
    with tree.query_engine() as engine:
        baseline = engine.knn_batch(queries, k=k)
    problems: list[str] = []
    with _serving(args, tree, kill=kill) as router:
        recorder = router.use_flight_recorder(
            obs.FlightRecorder(capacity=4096, top_slow=0)
        )
        try:
            degraded_run = router.knn_batch(queries, k=k)
        finally:
            router.clear_flight_recorder()
        n_degraded = sum(1 for r in degraded_run if r.degraded)
        for i, (base, got) in enumerate(zip(baseline, degraded_run)):
            got_ids = set(got.ids.tolist())
            for pid, dist in zip(base.ids.tolist(), base.distances.tolist()):
                if pid in got_ids:
                    continue
                page = router.page_of(pid)
                covered = any(
                    lp.page == page
                    and lp.mindist - 1e-9 <= dist <= lp.maxdist + 1e-9
                    for lp in got.lost_pages
                )
                if not covered:
                    problems.append(
                        f"query {i}: true neighbor {pid} (d={dist:.4f}, "
                        f"page {page}) neither returned nor covered by a "
                        f"lost-page bound"
                    )
            problems += [
                f"query {i}: {problem}"
                for problem in _certain_problems(tree, queries[i], got)
            ]
        if kill and not n_degraded:
            problems.append("shard kill degraded no result")
        problems += _flight_problems(recorder, n_degraded)
        for index in kill:
            router.revive_shard(index)
        problems += _answer_problems(
            baseline, router.knn_batch(queries, k=k), "revived router"
        )
    _report(
        f"shard-kill {kill} / {args.shards} shards:",
        problems,
        f"[{n_degraded} degraded / "
        f"{degraded_run.stats.lost_pages} lost-page reports, "
        f"{degraded_run.routing.skipped} visits pruned]",
    )
    print(f"chaos verdict: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def _write_ops_script(tree, n_ops: int, seed: int):
    """Deterministic insert/delete script for the write-chaos matrix.

    Roughly one delete per four inserts, deleting only ids this script
    created earlier -- so any acked prefix of the script is replayable
    on a pristine copy of the index.
    """
    rng = np.random.default_rng(seed)
    base = tree.n_points
    ops: list[tuple] = []
    created = 0
    live: list[int] = []
    for i in range(n_ops):
        if live and i % 4 == 3:
            victim = live.pop(int(rng.integers(len(live))))
            ops.append(("delete", victim))
        else:
            point = (
                rng.random(tree.dim).astype(np.float32).astype(np.float64)
            )
            ops.append(("insert", point))
            live.append(base + created)
            created += 1
    return ops


def _apply_write_op(store, op) -> None:
    if op[0] == "insert":
        store.insert(op[1])
    else:
        store.delete(op[1])


def _write_answers(tree, queries, k):
    tree._ensure_clean()
    return [tree.nearest(q, k=k) for q in queries]


def _chaos_writes(args: argparse.Namespace) -> int:
    """Crash the write path at every protocol boundary and verify that
    recovery is bit-identical to a crash-free replay of exactly the
    acknowledged operations; then race background re-quantization
    against query batches and demand unchanged answers."""
    import shutil
    import tempfile
    from pathlib import Path

    from repro.core.maintenance import MaintenanceManager
    from repro.core.optimizer import OptimizedPartition
    from repro.engine.sharding import ShardRouter
    from repro.exceptions import IntegrityError
    from repro.storage.faults import FaultInjector, PowerLoss
    from repro.storage.journal import (
        CRASH_POINTS,
        DurableTree,
        record_spans,
        wal_path,
    )

    source, queries = _load_workload(args)
    k = min(args.k, source.n_points)
    ops = _write_ops_script(source, args.ops, args.seed)
    crash_at = len(ops) // 2
    checkpoint_every = args.checkpoint_every
    group_commit = args.group_commit
    failed = False
    print(
        f"chaos (writes): {len(ops)} ops, crash at op {crash_at}, "
        f"checkpoint every {checkpoint_every}, group commit "
        f"{group_commit}, {len(queries)} probe queries, k={k}"
    )

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def fresh_store(name):
            path = tmp / f"{name}.iq"
            shutil.copy(args.index, path)
            # Drop any journal sidecar left by an earlier scenario.
            wal_path(path).unlink(missing_ok=True)
            return DurableTree.open(
                path, fsync=False, group_commit=group_commit
            )

        def run_prefix(store, n, checkpoints=True):
            for i in range(n):
                _apply_write_op(store, ops[i])
                if checkpoints and (i + 1) % checkpoint_every == 0:
                    store.checkpoint()

        def reference_answers(n_acked):
            ref = fresh_store("reference")
            for i in range(n_acked):
                _apply_write_op(ref, ops[i])
            return _write_answers(ref.tree, queries, k)

        # ---- crash matrix: every protocol boundary --------------------
        scenarios: list[tuple[str, dict]] = [
            (point, {"crash_point": point}) for point in CRASH_POINTS
        ]
        scenarios += [
            (f"torn-append[{budget}]", {"torn_append": budget})
            for budget in (1, 6, 18)
        ]
        scenarios += [
            (f"torn-checkpoint[{budget}]", {"torn_checkpoint": budget})
            for budget in (1, 512)
        ]
        for name, spec in scenarios:
            store = fresh_store("victim")
            run_prefix(store, crash_at)
            point = spec.get("crash_point")
            if point is not None:
                store.inject_crash(point)
            if "torn_append" in spec:
                store.inject_torn_append(spec["torn_append"])
            if "torn_checkpoint" in spec:
                store.inject_torn_checkpoint(spec["torn_checkpoint"])
            crashed = False
            index = crash_at
            checkpoint_crash = "torn_checkpoint" in spec or (
                point is not None and point.startswith("checkpoint")
            )
            try:
                if checkpoint_crash:
                    store.checkpoint()
                else:
                    # Crash inside the next scripted op of the type the
                    # boundary names (torn appends hit whatever is next).
                    wanted = (
                        point.split(":")[0] if point is not None else None
                    )
                    while wanted is not None and ops[index][0] != wanted:
                        _apply_write_op(store, ops[index])
                        index += 1
                    _apply_write_op(store, ops[index])
            except PowerLoss:
                crashed = True
            if not crashed:
                failed = True
                print(f"  {name:22s}: FAIL  !! injected crash never fired")
                continue
            store.close()
            # Acked = everything applied before the crash, plus the
            # crashed op iff its journal append completed (post-append).
            if checkpoint_crash:
                n_acked = index
            elif point is not None and point.endswith("post-append"):
                n_acked = index + 1
            else:  # pre-append or torn append: never acknowledged
                n_acked = index
            recovered = DurableTree.open(store.path, fsync=False)
            got = _write_answers(recovered.tree, queries, k)
            problems = _answer_problems(
                reference_answers(n_acked), got, "recovered"
            )
            failed |= _report(
                f"{name:22s}:",
                problems,
                f"[{n_acked} acked, {recovered.recovered_ops} replayed]",
            )

        # ---- at-rest corruption of an acked record is loud ------------
        store = fresh_store("victim")
        run_prefix(store, crash_at, checkpoints=False)
        store.close()
        spans = record_spans(wal_path(store.path))
        start, stop, _seq = spans[len(spans) // 2]
        FaultInjector(wal_path(store.path)).flip_bit(start + 12)
        try:
            DurableTree.open(store.path, fsync=False)
        except IntegrityError:
            print("  corrupt-acked-record   : ok  [recovery raised]")
        else:
            failed = True
            print(
                "  corrupt-acked-record   : FAIL  "
                "!! silent recovery over corrupted acked data"
            )

    # ---- concurrent maintenance: sweeps must be invisible -------------
    def churn_batches(run_batch, tree, rounds=4):
        import threading

        mgr = MaintenanceManager(tree, baseline="current")
        victim = int(np.argmax(tree._bits < 32))
        fine = int(tree._bits[victim])
        if fine >= 32 or fine <= 2:
            return None, 0  # nothing to requantize on this index
        stop = threading.Event()
        errors: list[BaseException] = []
        sweeps = [0]

        def churn():
            while not stop.is_set():
                try:
                    with tree._write_lock:
                        opt = tree._partitions[victim]
                        # Only coarsen quantized pages (an exact page
                        # has no refinement sidecar to decode against).
                        if 32 > opt.bits >= fine:
                            mgr._replace_page(
                                victim,
                                OptimizedPartition(opt.partition, fine - 2),
                            )
                    if not mgr.maybe_sweep().noop:
                        sweeps[0] += 1
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            results = [run_batch() for _ in range(rounds)]
        finally:
            stop.set()
            thread.join()
        if errors:
            raise errors[0]
        return results, sweeps[0]

    races = (
        ("engine", lambda t: t.query_engine(workers=2), lambda e: e.tree),
        (
            "sharded",
            lambda t: ShardRouter(t, shards=2, workers=2),
            lambda r: r.shards[0].tree,
        ),
    )
    for label, open_target, churned in races:
        with open_target(load_iqtree(args.index)) as target:
            want = target.knn_batch(queries, k=k)
            got_all, sweeps = churn_batches(
                lambda: target.knn_batch(queries, k=k), churned(target)
            )
        problems = [
            problem
            for got in got_all or []
            for problem in _answer_problems(
                want, got, f"{label} batch under maintenance"
            )
        ]
        failed |= _report(
            f"{f'maintenance x {label}:':23s}",
            problems,
            f"[{sweeps} sweeps raced]",
        )

    print(f"chaos verdict: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.core.search import locate_address
    from repro.storage.faults import ReadFaultInjector, RetryPolicy

    if args.writes:
        return _chaos_writes(args)
    tree, queries = _load_workload(args)
    k = min(args.k, tree.n_points)
    if args.shards is not None:
        print(
            f"chaos (sharded): {len(queries)} queries, k={k}, "
            f"{args.shards} shards, killing {args.kill_shards or 'none'}"
        )
        return _chaos_sharded(args, tree, queries, k)
    kinds = [s for s in args.kinds.split(",") if s]
    levels = [s for s in args.levels.split(",") if s]
    for kind in kinds:
        if kind not in _CHAOS_KINDS:
            raise SystemExit(f"unknown fault kind {kind!r}")
    for level in levels:
        if level not in _CHAOS_LEVELS:
            raise SystemExit(f"unknown level {level!r}")
    policy = RetryPolicy(max_attempts=args.retries, backoff_seeks=1)

    # Baseline answers on the pristine tree, keyed by query position.
    baseline = {
        key: result
        for key, _query, result in _chaos_workload(
            tree, queries, k, args.radius
        )
    }

    # Oracle pass: a schedule-free injector observes every timed read,
    # telling us which addresses each level actually touches.
    observer = ReadFaultInjector()
    tree.disk.install_fault_injector(observer)
    for _run in _chaos_workload(tree, queries, k, args.radius):
        pass
    tree.disk.clear_fault_injector()
    victims: dict[str, int] = {}
    for address in sorted(observer.attempts_seen):
        level, _local = locate_address(tree, address)
        if level is not None:
            victims.setdefault(level, address)

    print(
        f"chaos: {len(queries)} queries, k={k}"
        + (f", radius={args.radius}" if args.radius is not None else "")
        + f", retry limit {policy.max_attempts}"
    )
    failed = False
    for level in levels:
        if level not in victims:
            print(f"  {level:9s}: no reads observed, skipping")
            continue
        address = victims[level]
        for kind in kinds:
            problems, degraded, lost, counters = _chaos_run(
                tree, queries, k, args.radius, kind, level, address,
                policy, baseline,
            )
            failed |= _report(
                f"{kind:10s} x {level:9s} (block {address}):",
                problems,
                f"retries={counters[0]} quarantined={counters[1]} "
                f"degraded={counters[2]} lost_pages={counters[3]} "
                f"[{degraded} degraded / {lost} lost-page reports]",
            )

    # A chaos run must not poison later fault-free queries.
    clean_problems: list[str] = []
    for i, query in enumerate(queries):
        result = tree.nearest(query, k=k)
        clean_problems.extend(
            _chaos_check(tree, query, result, baseline[("knn", i)], "transient")
        )
    if clean_problems:
        failed = True
        print("post-chaos pristine check: FAIL")
        for problem in clean_problems:
            print(f"      !! {problem}")
    else:
        print("post-chaos pristine check: ok (matches baseline)")
    print(f"chaos verdict: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


# The serving options :func:`_serving` reads, declared once; each
# command adds the ones it has.
_SERVING_OPTIONS = {
    "--pool": dict(
        type=int,
        default=None,
        help="buffer pool capacity in blocks (default: no pool)",
    ),
    "--workers": dict(
        type=int,
        default=1,
        help="worker processes for the per-query phases (default: 1 = inline)",
    ),
    "--decode-cache": dict(
        type=int,
        default=None,
        metavar="BYTES",
        help="cross-batch decoded-page cache budget in bytes "
        "(default: no decoded cache)",
    ),
    "--shards": dict(
        type=int,
        default=None,
        help="serve scatter-gather through a ShardRouter over this many "
        "shards (partitioned from the first-level directory by MBR); "
        "cache budgets become per-shard budgets",
    ),
    "--kill-shard": dict(
        type=int,
        action="append",
        metavar="INDEX",
        help="take a shard down first (repeatable, with --shards); its "
        "queries degrade to lost-page bounds instead of failing",
    ),
}


def _add_workload(parser, random: int, k: int, random_help: str, *serving):
    """Declare the index, the ``--random``/``--k``/``--seed`` workload and
    the named :data:`_SERVING_OPTIONS`."""
    parser.add_argument("index")
    parser.add_argument("--random", type=int, default=random, help=random_help)
    parser.add_argument("--k", type=int, default=k)
    parser.add_argument("--seed", type=int, default=0)
    for flag in serving:
        parser.add_argument(flag, **_SERVING_OPTIONS[flag])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IQ-tree index tool (build / query / info / validate)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build and save an index")
    build.add_argument("data", help="numpy .npy file of (n, d) points")
    build.add_argument("index", help="output index path")
    build.add_argument("--metric", default="euclidean")
    build.add_argument(
        "--no-optimize",
        action="store_true",
        help="store exact pages (skip the quantization optimizer)",
    )
    build.add_argument(
        "--bits",
        type=int,
        default=None,
        help="quantize every page at this resolution (skips the optimizer)",
    )
    build.add_argument(
        "--uniform-model",
        action="store_true",
        help="use the uniform cost model instead of estimating D_F",
    )
    build.add_argument(
        "--codec",
        choices=("auto", "grid", "pq", "ef"),
        default="grid",
        help="second-level page codec policy: grid (reference layout), "
        "pq (per-page k-means codebooks), ef (Elias-Fano compressed "
        "directory), or auto (cost-model pick per page + directory)",
    )
    build.set_defaults(func=_cmd_build)

    query = sub.add_parser("query", help="run nearest-neighbor queries")
    _add_workload(
        query, 1, 1, "number of random queries when --point is absent"
    )
    query.add_argument(
        "--point", help="comma-separated query coordinates"
    )
    query.set_defaults(func=_cmd_query)

    batch = sub.add_parser(
        "batch", help="run a query batch through the shared-buffer engine"
    )
    _add_workload(
        batch, 10, 1, "number of random queries in the batch",
        "--pool", "--workers", "--decode-cache", "--shards", "--kill-shard",
    )
    batch.add_argument(
        "--radius",
        type=float,
        default=None,
        help="run range queries with this radius instead of kNN",
    )
    batch.add_argument(
        "--compare",
        action="store_true",
        help="also run the same queries one by one and report the cost",
    )
    batch.set_defaults(func=_cmd_batch)

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("index")
    info.set_defaults(func=_cmd_info)

    fsck = sub.add_parser(
        "fsck",
        help="verify a container's integrity section by section",
    )
    fsck.add_argument("index")
    fsck.add_argument(
        "--codec",
        choices=("auto", "grid", "pq", "ef"),
        default=None,
        help="also assert the container's declared codec policy "
        "matches this build-time choice",
    )
    fsck.set_defaults(func=_cmd_fsck)

    validate = sub.add_parser(
        "validate", help="compare cost-model predictions with measurements"
    )
    validate.add_argument("index")
    validate.add_argument("--queries", type=int, default=10)
    validate.add_argument("--k", type=int, default=1)
    validate.add_argument("--seed", type=int, default=0)
    validate.set_defaults(func=_cmd_validate)

    stats = sub.add_parser(
        "stats",
        help="run a query workload and dump the metrics registry",
    )
    _add_workload(stats, 20, 5, "workload size", "--pool")
    stats.add_argument(
        "--format",
        choices=("prometheus", "json"),
        default="prometheus",
        help="output format (default: Prometheus text exposition)",
    )
    stats.add_argument(
        "--drift",
        action="store_true",
        help="append the cost-model drift report",
    )
    stats.add_argument(
        "--slo",
        action="append",
        metavar="SPEC",
        help="evaluate a service-level objective and export iq_slo_* "
        "gauges: '[name=]histogram:p99<=0.05' or "
        "'[name=]counter_a/counter_b<=0.01' (repeatable); exit code "
        "1 when any objective burns",
    )
    stats.set_defaults(func=_cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="trace one query batch as a span tree with I/O attribution",
    )
    _add_workload(
        trace, 1, 5, "queries in the batch", "--pool", "--workers", "--shards"
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the span tree as JSON"
    )
    trace.add_argument(
        "--export",
        choices=("chrome", "otlp"),
        default=None,
        help="emit the trace as Chrome trace-event JSON (load in "
        "Perfetto / chrome://tracing) or OTLP-style span JSON "
        "instead of the rendered tree",
    )
    trace.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the exported trace to this file instead of stdout",
    )
    trace.set_defaults(func=_cmd_trace)

    flight = sub.add_parser(
        "flight",
        help="run a workload with a flight recorder attached and dump "
        "the captured postmortem records as JSON",
    )
    _add_workload(
        flight, 20, 5, "workload size",
        "--pool", "--workers", "--shards", "--kill-shard",
    )
    flight.add_argument(
        "--capacity", type=int, default=64, help="ring-buffer capacity"
    )
    flight.add_argument(
        "--slow-threshold",
        type=float,
        default=None,
        metavar="SIM_SECONDS",
        help="absolute simulated-seconds bound for slow capture",
    )
    flight.add_argument(
        "--top-slow",
        type=int,
        default=8,
        help="capture queries among this many slowest seen so far "
        "(0 disables relative slow capture)",
    )
    flight.add_argument(
        "--single",
        action="store_true",
        help="run single queries through tree.nearest instead of one "
        "engine batch (exact per-query costs)",
    )
    flight.set_defaults(func=_cmd_flight)

    chaos = sub.add_parser(
        "chaos",
        help="inject read faults and verify the degraded-result contract",
    )
    _add_workload(chaos, 8, 3, "queries per schedule")
    chaos.add_argument(
        "--radius",
        type=float,
        default=None,
        help="also run range queries with this radius",
    )
    chaos.add_argument(
        "--kinds",
        default=",".join(_CHAOS_KINDS),
        help="comma-separated fault kinds (transient,persistent,corrupt)",
    )
    chaos.add_argument(
        "--levels",
        default=",".join(_CHAOS_LEVELS),
        help="comma-separated victim levels (quantized,exact)",
    )
    chaos.add_argument(
        "--retries", type=int, default=3, help="retry budget per read"
    )
    chaos.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run the shard-kill matrix instead of block faults: "
        "split into this many shards and verify degraded answers "
        "contain the truth",
    )
    chaos.add_argument(
        "--kill-shards",
        default="0",
        metavar="I,J,...",
        help="comma-separated shard indices to kill (default: 0); "
        "only used with --shards",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count of the sharded run (only with --shards)",
    )
    chaos.add_argument(
        "--writes",
        action="store_true",
        help="run the write-path matrix instead of read faults: crash "
        "the journal/checkpoint protocol at every boundary, verify "
        "recovery is bit-identical to a crash-free replay of the "
        "acknowledged ops, then race background re-quantization "
        "against query batches",
    )
    chaos.add_argument(
        "--ops",
        type=int,
        default=40,
        help="scripted insert/delete operations (only with --writes)",
    )
    chaos.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="checkpoint cadence in the write script (only with --writes)",
    )
    chaos.add_argument(
        "--group-commit",
        type=int,
        default=1,
        help="WAL group-commit window: acknowledge writes only at every "
        "Nth fsync batch (only with --writes; 1 = fsync per append)",
    )
    chaos.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
