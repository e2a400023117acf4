"""Tests for the query-explanation diagnostics."""

import numpy as np
import pytest

from repro.exceptions import SearchError
from repro.core.diagnostics import explain_query
from repro.core.tree import IQTree
from repro.storage.disk import DiskModel, SimulatedDisk


@pytest.fixture
def tree(uniform_points, small_disk):
    return IQTree.build(uniform_points, disk=small_disk)


class TestExplainQuery:
    def test_result_matches_normal_query(self, tree, rng):
        q = rng.random(8)
        explanation = explain_query(tree, q, k=3)
        normal = tree.nearest(q, k=3)
        assert np.array_equal(explanation.result_ids, normal.ids)
        assert np.allclose(
            explanation.result_distances, normal.distances
        )

    def test_every_page_classified_once(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        assert len(explanation.decisions) == tree.n_pages
        assert explanation.pages_read + explanation.pages_pruned == (
            tree.n_pages
        )

    def test_read_pages_have_order(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        orders = [
            d.order
            for d in explanation.decisions
            if d.outcome != "pruned"
        ]
        assert sorted(orders) == list(range(len(orders)))

    def test_at_least_one_pivot(self, tree, rng):
        explanation = explain_query(tree, rng.random(8))
        assert any(d.outcome == "pivot" for d in explanation.decisions)

    def test_pruned_pages_are_far(self, tree, rng):
        q = rng.random(8)
        explanation = explain_query(tree, q, k=1)
        if explanation.pages_pruned == 0:
            pytest.skip("no pruning for this query at this scale")
        worst_result = explanation.result_distances[-1]
        for d in explanation.decisions:
            if d.outcome == "pruned":
                assert d.mindist >= worst_result - 1e-9

    def test_decoded_cache_pages_count_as_read(
        self, tree, uniform_points, rng
    ):
        """With a decoded cache attached, the decisions describe the
        query that ran: it reads what the uncached query reads."""
        q = rng.random(8)
        uncached = IQTree.build(
            uniform_points,
            disk=SimulatedDisk(
                DiskModel(t_seek=0.010, t_xfer=0.001, block_size=512)
            ),
        )
        expected = uncached.nearest(q, k=3).pages_read
        tree.use_decoded_cache(16 << 20)
        explanation = explain_query(tree, q, k=3)
        assert explanation.pages_read == expected
        assert explanation.pages_read + explanation.pages_pruned == (
            tree.n_pages
        )

    def test_summary_text(self, tree, rng):
        text = explain_query(tree, rng.random(8)).summary()
        assert "pages" in text and "ms simulated" in text

    def test_bad_query_shape(self, tree):
        with pytest.raises(SearchError):
            explain_query(tree, np.zeros(2))

    def test_clustered_query_shows_pruning(self, clustered_points, small_disk):
        tree = IQTree.build(clustered_points, disk=small_disk)
        # A query inside one cluster should never touch the others.
        explanation = explain_query(tree, np.full(6, 0.2))
        assert explanation.pages_pruned > 0
