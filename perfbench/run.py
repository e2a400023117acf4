"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload knn-single --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  ``--trace 1`` runs the same workload twice for a fixed
number of operations, untraced and then traced, and reports the
per-layer metrics, the tracing overhead and span coverage, and whether
the ledger-derived counts of the two passes agree.  ``--size small`` is
the reduced-size mode the benchmark's own tests use.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run metadata and the details behind the metrics.  Scratch
files (containers, journals, worker arenas) live under ``.perfbench/``
in the repository and are removed at exit; span dumps of traced runs
stay in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("knn-single", "knn-batch", "write-mix", "all"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD commit of the checkout, read from ``.git`` (or "unknown")."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def metadata(args, size) -> dict:
    import numpy as np
    from repro.obs.instruments import REGISTRY

    from perfbench import workloads as wl

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "flush_policy": wl.FLUSH_POLICY,
        "decoded_cache_budget_bytes": (
            None if args.workload == "write-mix"
            else wl.cache_budget(args.workload, size)
        ),
        "workers": wl.WORKERS if args.workload == "knn-batch" else 1,
        "backend": "process" if args.workload == "knn-batch" else "none",
        "metrics_registry_enabled": REGISTRY.enabled,
        "k": wl.K,
        "batch": size.batch,
        "n_points": size.n,
        "dim": size.dim,
    }


def tail(samples, q: float, notes: list, what: str) -> float:
    """The ``q``-th percentile, noting when fewer than ten samples lie
    beyond it."""
    from perfbench.metrics import beyond, percentile

    if beyond(len(samples), q) < 10:
        notes.append(f"{what}: only {len(samples)} samples for p{q:g}")
    return percentile(samples, q)


def measure(args, size, workdir):
    """The untraced run: end-to-end metrics."""
    from perfbench import workloads as wl
    from perfbench.metrics import (
        END_TO_END, mean, percentile, pool_means, with_units,
    )

    null = wl.NullTracer()
    work = wl.Workload(args.workload, args.seed, size, workdir)
    setup = work.setup(null, size.builds)
    run = work.run(null, seconds=args.seconds)

    notes: list[str] = []
    knn_q, over = wl.KNN_TAIL[args.workload]
    pool = pool_means(run.knn_lat, run.knn_ids)
    slots = pool_means(run.write_lat, run.write_ids)
    values = {
        "setup_s": percentile(setup, 50),
        "peak_rss_mb": peak_rss_mb(),
        "knn_p50_ms": percentile(pool, 50) * 1e3,
        "knn_tail_ms": tail(
            pool if over == "pool" else run.knn_lat, knn_q, notes, "knn"
        ) * 1e3,
        "ops_per_s": (run.queries + run.writes) / run.wall,
        "sim_ms_per_query": 1e3 * mean(run.sim),
        "write_cpu_ms": 1e3 * mean(run.write_cpu),
        "recovery_s": percentile(run.recovery, 50),
        "space_amp": percentile(run.space_amp, 50),
    }
    details = {
        "error_rate": {"value": run.failed / run.attempted, "unit": "ratio"},
        "write_p50_ms": {"value": percentile(slots, 50) * 1e3, "unit": "ms"},
        "write_tail_ms": {
            "value": tail(slots, wl.WRITE_TAIL, notes, "write") * 1e3,
            "unit": "ms",
        },
        "knn_tail_percentile": knn_q,
        "knn_tail_over": over,
        "write_tail_percentile": wl.WRITE_TAIL,
        "knn_samples": len(run.knn_lat),
        "knn_pool": len(pool),
        "write_samples": len(run.write_lat),
        "write_slots": len(slots),
        "queries": run.queries,
        "writes": run.writes,
        "measured_wall_s": run.wall,
        "setup_samples_s": setup,
        "recovery_samples_s": run.recovery,
        "replayed_records": run.replayed,
        "sweeps": len(run.sweeps),
        "checkpoints": len(run.checkpoint_bytes),
        "ledger_digest": wl.digest(run),
        "notes": notes,
        "errors": run.errors,
    }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": with_units(values, END_TO_END),
    }
    return result, details


def trace(args, size, workdir, outdir):
    """The traced run: per-layer metrics, overhead, coverage, and the
    determinism guard."""
    from perfbench import tracer as tr
    from perfbench import workloads as wl
    from perfbench.layers import layer_values
    from perfbench.metrics import PER_LAYER, mapping, with_units

    ops = max(1, round(wl.TRACE_OPS_PER_SECOND[args.workload] * args.seconds))
    null = wl.NullTracer()
    plain = wl.Workload(args.workload, args.seed, size, workdir)
    plain.setup(null, 1)
    untraced = plain.run(null, ops=ops)
    del plain
    gc.collect()

    tracer = tr.Tracer()
    undo = tr.install(tracer)
    try:
        work = wl.Workload(args.workload, args.seed, size, workdir)
        work.setup(tracer, 1)
        traced = work.run(tracer, ops=ops)
    finally:
        tr.uninstall(undo)

    mismatches = []
    if wl.digest(untraced) != wl.digest(traced):
        mismatches.append("ledger counts differ between untraced and traced")
    if args.workload == "knn-single":
        nearest = tracer.of_kind("nearest")
        decoded = sum(r.layer("storage.serializer.decode")[0] for r in nearest)
        pages = sum(entry[4] for entry in untraced.ledger)
        if decoded != pages - untraced.cache[0]:
            mismatches.append(
                f"traced pages_decoded {decoded} != untraced pages read "
                f"{pages} - decoded-cache hits {untraced.cache[0]}"
            )
        fetched = sum(r.layer("core.search.refine")[0] for r in nearest)
        if fetched != sum(entry[5] for entry in untraced.ledger):
            mismatches.append("traced refinements != untraced ledger")

    values = layer_values(tracer, traced, untraced)
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed + len(mismatches)
    details = {
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "ops_per_pass": ops,
        "determinism": mismatches or "ok",
        "ledger_digest": wl.digest(traced),
        "count_digest": tracer.count_digest(),
        "spans": sum(1 for s in tracer.spans if s is not None),
        "errors": untraced.errors + traced.errors,
    }
    os.makedirs(outdir / "traces", exist_ok=True)
    dump = outdir / "traces" / f"{args.workload}-seed{args.seed}.json"
    tracer.dump(dump, details)
    details["trace_file"] = str(dump.relative_to(ROOT))
    details["layer_map"] = mapping()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(values, PER_LAYER),
    }
    return result, details


def run_all(args) -> int:
    """Each workload in its own process, so one workload's peak memory
    cannot leak into another's."""
    from perfbench.metrics import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} failed", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        for line in lines:
            print(f"{name} {line}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)

    from perfbench import workloads as wl

    size = wl.SMALL if args.size == "small" else wl.FULL
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"run-{os.getpid()}"
    # a terminated run still closes its workers and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    scratch = workdir / "tmp"
    os.makedirs(scratch)
    try:
        # Worker arenas and temp files go under the checkout too.
        import repro.engine.shm as shm

        tempfile.tempdir = str(scratch)
        shm._SHM_DIR = str(scratch)
        if args.trace:
            result, details = trace(args, size, str(workdir), outdir)
        else:
            result, details = measure(args, size, str(workdir))
        meta = metadata(args, size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"meta": meta, "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
