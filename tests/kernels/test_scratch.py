"""Memoized scratch buffers: cached, read-only, and never aliased."""

import numpy as np
import pytest

from repro.graph import DirectedGraph, UndirectedGraph, chung_lu_undirected


@pytest.fixture()
def graph():
    return chung_lu_undirected(120, 400, seed=5)


@pytest.fixture()
def digraph():
    return DirectedGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]
    )


class TestMemoization:
    def test_accessors_return_the_cached_object(self, graph):
        assert graph.degrees() is graph.degrees()
        assert graph.heads() is graph.heads()
        assert graph.hindex_bins() is graph.hindex_bins()

    def test_directed_accessors_cached(self, digraph):
        assert digraph.out_degrees() is digraph.out_degrees()
        assert digraph.in_degrees() is digraph.in_degrees()

    def test_values_are_correct(self, graph):
        assert np.array_equal(graph.degrees(), np.diff(graph.indptr))
        expected_heads = np.repeat(
            np.arange(graph.num_vertices), np.diff(graph.indptr)
        )
        assert np.array_equal(graph.heads(), expected_heads)
        bin_ptr = graph.hindex_bins()
        assert bin_ptr[0] == 0
        assert np.array_equal(np.diff(bin_ptr), graph.degrees() + 1)
        assert np.array_equal(
            bin_ptr, graph.indptr + np.arange(graph.num_vertices + 1)
        )


class TestReadOnly:
    def test_writes_raise(self, graph):
        for buffer in (graph.degrees(), graph.heads(), graph.hindex_bins()):
            with pytest.raises(ValueError):
                buffer[0] = 99

    def test_directed_writes_raise(self, digraph):
        for buffer in (digraph.out_degrees(), digraph.in_degrees()):
            with pytest.raises(ValueError):
                buffer[0] = 99

    def test_copy_is_writable(self, graph):
        mine = graph.degrees().copy()
        mine[0] = 123  # must not raise
        assert graph.degrees()[0] != 123 or mine[0] == graph.degrees()[0]


class TestDerivedGraphFreshness:
    """Regression (satellite f): derived graphs never alias parent caches."""

    def test_induced_subgraph_has_fresh_caches(self, graph):
        parent_heads = graph.heads()
        parent_degrees = graph.degrees()
        sub, original_ids = graph.induced_subgraph(np.arange(50))
        assert sub._scratch == {} or all(
            buf is not parent_heads and buf is not parent_degrees
            for buf in sub._scratch.values()
        )
        assert sub.heads() is not parent_heads
        assert sub.degrees() is not parent_degrees
        assert np.array_equal(sub.degrees(), np.diff(sub.indptr))
        assert np.array_equal(
            sub.heads(), np.repeat(np.arange(sub.num_vertices), sub.degrees())
        )

    def test_subgraph_from_edge_mask_has_fresh_caches(self, graph):
        parent_heads = graph.heads()
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[: graph.num_edges // 2] = True
        sub = graph.subgraph_from_edge_mask(mask)
        assert sub.heads() is not parent_heads
        assert np.array_equal(
            sub.heads(), np.repeat(np.arange(sub.num_vertices), sub.degrees())
        )

    def test_relabeled_has_fresh_caches(self, graph):
        parent_heads = graph.heads()
        parent_bins = graph.hindex_bins()
        rng = np.random.default_rng(0)
        perm = rng.permutation(graph.num_vertices)
        relabeled = graph.relabeled(perm)
        assert relabeled.heads() is not parent_heads
        assert relabeled.hindex_bins() is not parent_bins
        assert np.array_equal(
            np.sort(relabeled.degrees()), np.sort(graph.degrees())
        )

    def test_directed_subgraph_has_fresh_caches(self, digraph):
        parent_out = digraph.out_degrees()
        mask = np.ones(digraph.num_edges, dtype=bool)
        mask[0] = False
        sub = digraph.subgraph_from_edge_mask(mask)
        assert sub.out_degrees() is not parent_out
        assert int(sub.out_degrees().sum()) == sub.num_edges

    def test_parent_cache_unchanged_after_derivation(self, graph):
        before = graph.heads().copy()
        graph.induced_subgraph(np.arange(30))
        mask = np.zeros(graph.num_edges, dtype=bool)
        mask[::2] = True
        graph.subgraph_from_edge_mask(mask)
        assert np.array_equal(graph.heads(), before)


class TestEmptyGraphs:
    def test_empty_graph_buffers(self):
        g = UndirectedGraph.empty(4)
        assert g.degrees().tolist() == [0, 0, 0, 0]
        assert g.heads().size == 0
        assert g.hindex_bins().tolist() == [0, 1, 2, 3, 4]
