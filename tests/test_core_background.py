"""Tests for drift-triggered background re-quantization (PR 9).

The load-bearing property throughout: a maintenance sweep changes
query *cost*, never query *answers* -- the index is exact with respect
to its stored data at every quantization level, so every test can
demand bit-identical results across a sweep.
"""

import threading

import numpy as np
import pytest

import repro.core.maintenance as maintenance
from repro.exceptions import BuildError
from repro.core.maintenance import (
    MaintenanceLoop,
    MaintenanceManager,
    delete_point,
)
from repro.core.tree import IQTree
from repro.engine.engine import QueryEngine


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points[:500], disk=small_disk)


def shrink_page(tree, page, keep=30):
    """Delete most of one page's points so its storable resolution
    rises (the classic drift: a page left much emptier than when the
    optimizer chose its bits)."""
    victims = tree._partitions[page].partition.indices[:-keep]
    for pid in victims:
        delete_point(tree, int(pid))
    tree._ensure_clean()
    return victims


class TestDirtyTracking:
    def test_fresh_tree_is_clean(self, tree):
        mgr = tree.maintenance_manager()
        assert mgr.dirty_pages() == []
        report = mgr.sweep()
        assert report.noop

    def test_structural_edits_dirty_their_pages(self, tree, rng):
        mgr = tree.maintenance_manager()
        tree.insert(rng.random(8))
        tree._ensure_clean()
        assert mgr.dirty_pages() != []

    def test_baseline_none_marks_everything_dirty(self, tree):
        mgr = MaintenanceManager(tree, baseline="none")
        assert mgr.dirty_pages() == list(range(tree.n_pages))

    def test_bad_parameters_rejected(self, tree):
        with pytest.raises(BuildError):
            MaintenanceManager(tree, drift_ratio=0.9)
        with pytest.raises(BuildError):
            MaintenanceManager(tree, baseline="bogus")

    def test_drift_report_escalates_to_full_scan(self, tree):
        mgr = tree.maintenance_manager(drift_ratio=1.25)

        class Calm:
            count = 50
            page_error_p50 = 0.05

        class Drifted:
            count = 50
            page_error_p50 = 2.0

        assert not mgr.observe_drift(Calm())
        assert mgr.dirty_pages() == []
        assert mgr.observe_drift(Drifted())
        # A freshly optimized tree has nothing suboptimal even under
        # the flag; the flag only widens the *scan*, it does not invent
        # dirty pages.
        shrunk = mgr.dirty_pages()
        assert isinstance(shrunk, list)

    def test_empty_drift_report_ignored(self, tree):
        mgr = tree.maintenance_manager()

        class Empty:
            count = 0
            page_error_p50 = float("nan")

        assert not mgr.observe_drift(Empty())


class TestSweep:
    def test_in_place_requantize(self, tree, rng):
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        old_bits = tree._bits[0]
        quant_file = tree._quant_file
        queries = [rng.random(8) for _ in range(4)]
        before = [tree.nearest(q, k=5) for q in queries]

        report = mgr.sweep()

        assert report.requantized >= 1
        assert report.restructured == 0
        # Bits-only swap: same files, same extents, finer page.
        assert tree._quant_file is quant_file
        assert tree._bits[0] > old_bits
        for q, b in zip(queries, before):
            a = tree.nearest(q, k=5)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)

    def test_sweep_is_idempotent(self, tree):
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        first = mgr.sweep()
        assert not first.noop
        assert mgr.sweep().noop

    def test_sweep_bumps_epoch(self, tree):
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        epoch = tree.epoch
        report = mgr.sweep()
        assert report.requantized + report.restructured >= 1
        assert tree.epoch > epoch

    def test_requantize_invalidates_decoded_cache(self, tree, rng):
        """An in-place page swap must evict the stale decode, not serve
        coordinates quantized on the old (coarser) grid."""
        cache = tree.use_decoded_cache(64)
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        q = rng.random(8)
        baseline = tree.nearest(q, k=5)  # warms the decoded cache
        report = mgr.sweep()
        assert report.requantized >= 1
        after = tree.nearest(q, k=5)
        assert np.array_equal(after.ids, baseline.ids)
        assert np.array_equal(after.distances, baseline.distances)
        assert cache is tree._decoded_cache

    def test_structural_sweep_after_severe_shrink(self, tree, rng):
        """Shrinking a page to a handful of points crosses the exact
        (32-bit) threshold -- not an in-place swap, a re-layout."""
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=4)
        queries = [rng.random(8) for _ in range(3)]
        before = [tree.nearest(q, k=5) for q in queries]
        report = mgr.sweep()
        assert report.restructured >= 1
        for q, b in zip(queries, before):
            a = tree.nearest(q, k=5)
            assert np.array_equal(a.ids, b.ids)

    def test_failed_sweep_reaches_flight_recorder(
        self, tree, monkeypatch
    ):
        recorder = tree.use_flight_recorder(16)
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)

        def boom(*args, **kwargs):
            raise RuntimeError("optimizer exploded")

        monkeypatch.setattr(maintenance, "optimize_partitions", boom)
        with pytest.raises(RuntimeError):
            mgr.sweep()
        faulted = recorder.records("faulted")
        assert any(r.kind == "maintenance" for r in faulted)


class TestQuarantineInteraction:
    def test_sweep_never_resurrects_a_quarantined_address(
        self, tree, rng
    ):
        """A dirty page whose quantized block is quarantined must be
        healed structurally (fresh extent), never rewritten in place at
        the proven-bad address."""
        ctx = tree.use_fault_tolerance()
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        bad_address = tree._quant_file.extent_start + 0
        ctx.quarantine.add(bad_address)

        report = mgr.sweep()

        # The page was dirty and improvable, but the in-place path was
        # forbidden: it must have gone through the structural path.
        assert 0 in report.dirty
        assert report.restructured >= 1
        # The re-layout landed on fresh extents past the quarantined
        # address (extent allocation is monotone).
        assert tree._quant_file.extent_start > bad_address
        assert all(
            tree._quant_file.extent_start + j != bad_address
            for j in range(tree._quant_file.n_blocks)
        )

    def test_quarantined_tree_answers_exactly_after_sweep(
        self, tree, rng
    ):
        ctx = tree.use_fault_tolerance()
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        ctx.quarantine.add(tree._quant_file.extent_start + 0)
        queries = [rng.random(8) for _ in range(3)]
        before = [tree.nearest(q, k=5) for q in queries]
        mgr.sweep()
        for q, b in zip(queries, before):
            a = tree.nearest(q, k=5)
            assert np.array_equal(a.ids, b.ids)
            assert np.array_equal(a.distances, b.distances)


class TestConcurrency:
    """Sweeps racing query batches must be invisible in the answers."""

    def _churn_and_query(self, tree, engine, queries, k=4):
        """Query while a churn thread keeps rewriting quantized pages.

        The churn de-optimizes one page to a coarser grid (same
        machinery as the sweep's in-place swap) and lets the sweep
        re-finest it -- real page rewrites on every round, while the
        stored data never changes, so every batch must answer
        identically to a quiet tree.
        """
        from repro.core.optimizer import OptimizedPartition

        mgr = tree.maintenance_manager()
        victim = int(np.argmax(tree._bits < 32))
        fine_bits = int(tree._bits[victim])
        assert fine_bits < 32 and fine_bits > 2
        stop = threading.Event()
        sweep_error = []

        def churn():
            while not stop.is_set():
                try:
                    with tree._write_lock:
                        opt = tree._partitions[victim]
                        if opt.bits == fine_bits:
                            mgr._replace_page(
                                victim,
                                OptimizedPartition(
                                    opt.partition, fine_bits - 2
                                ),
                            )
                    mgr.maybe_sweep()
                except BaseException as exc:  # pragma: no cover
                    sweep_error.append(exc)
                    return

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            results = [engine.knn_batch(queries, k=k) for _ in range(6)]
        finally:
            stop.set()
            thread.join()
        assert not sweep_error
        return results

    def test_batches_identical_under_concurrent_sweeps(
        self, uniform_points, small_disk, rng
    ):
        data = uniform_points[:500]
        quiet = IQTree.build(data, disk=small_disk)
        engine_quiet = QueryEngine(quiet)
        queries = rng.random((12, 8))
        want = engine_quiet.knn_batch(queries, k=4)

        noisy = IQTree.build(data, disk=small_disk)
        got_all = self._churn_and_query(
            noisy, QueryEngine(noisy), queries
        )
        for got in got_all:
            for w, g in zip(want, got):
                assert np.array_equal(w.ids, g.ids)
                assert np.array_equal(w.distances, g.distances)

    def test_loop_with_process_backend_batches(
        self, uniform_points, small_disk, rng
    ):
        data = uniform_points[:500]
        quiet = IQTree.build(data, disk=small_disk)
        queries = rng.random((8, 8))
        want = QueryEngine(quiet).knn_batch(queries, k=3)

        noisy = IQTree.build(data, disk=small_disk)
        engine = QueryEngine(noisy, workers=2)
        try:
            got_all = self._churn_and_query(noisy, engine, queries, k=3)
            for got in got_all:
                for w, g in zip(want, got):
                    assert np.array_equal(w.ids, g.ids)
                    assert np.array_equal(w.distances, g.distances)
        finally:
            engine.close()


class TestMaintenanceLoop:
    def test_loop_sweeps_until_clean(self, tree):
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)
        loop = MaintenanceLoop(mgr, interval=0.001).start()
        try:
            deadline = threading.Event()
            for _ in range(200):
                if mgr.dirty_pages() == []:
                    break
                deadline.wait(0.005)
        finally:
            sweeps = loop.stop()
        assert sweeps >= 1
        assert mgr.dirty_pages() == []

    def test_loop_propagates_sweep_errors(self, tree, monkeypatch):
        mgr = tree.maintenance_manager()
        shrink_page(tree, 0, keep=30)

        def boom(*args, **kwargs):
            raise RuntimeError("sweep died")

        monkeypatch.setattr(mgr, "sweep", boom)
        loop = MaintenanceLoop(mgr, interval=0.001).start()
        for _ in range(200):
            if loop._error is not None:
                break
            threading.Event().wait(0.005)
        with pytest.raises(RuntimeError):
            loop.stop()

    def test_double_start_rejected(self, tree):
        loop = MaintenanceLoop(tree.maintenance_manager())
        loop.start()
        try:
            with pytest.raises(BuildError):
                loop.start()
        finally:
            loop.stop()
