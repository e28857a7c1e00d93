"""Tests for the extension algorithms: binary-search strawman, CoreExact,
and the k-truss machinery (the paper's future-work direction)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.undirected import (
    brute_force_uds,
    coreexact_uds,
    edge_support,
    exact_uds_goldberg,
    kstar_binary_search_uds,
    max_truss_uds,
    truss_decomposition,
)
from repro.core import pkmc
from repro.errors import EmptyGraphError
from repro.graph import (
    UndirectedGraph,
    gnm_random_undirected,
    planted_dense_subgraph,
)


class TestBinarySearchStrawman:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_pkmc(self, seed):
        g = gnm_random_undirected(16, 40, seed=seed)
        if g.num_edges == 0:
            return
        strawman = kstar_binary_search_uds(g)
        reference = pkmc(g)
        assert strawman.k_star == reference.k_star
        assert strawman.vertices.tolist() == reference.vertices.tolist()

    def test_probe_count_logarithmic(self):
        graph, _ = planted_dense_subgraph(
            1500, 6000, core_size=30, core_probability=1.0, seed=0
        )
        result = kstar_binary_search_uds(graph)
        assert result.iterations <= int(np.log2(graph.max_degree())) + 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            kstar_binary_search_uds(UndirectedGraph.empty(3))

    def test_simulated_cost_exceeds_pkmc(self):
        # The strawman pays O((m + n) log n): the reason the paper
        # discards it in Section IV-B.
        from repro.datasets import load_undirected
        from repro.runtime import SimRuntime

        g = load_undirected("PT")
        strawman = kstar_binary_search_uds(g, runtime=SimRuntime(32))
        reference = pkmc(g, runtime=SimRuntime(32))
        assert strawman.simulated_seconds > reference.simulated_seconds


class TestCoreExact:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_goldberg(self, seed):
        g = gnm_random_undirected(12, 28, seed=seed)
        if g.num_edges == 0:
            return
        assert coreexact_uds(g).density == pytest.approx(
            exact_uds_goldberg(g).density
        )

    def test_matches_brute_force(self):
        for seed in range(6):
            g = gnm_random_undirected(11, 25, seed=seed)
            if g.num_edges == 0:
                continue
            assert coreexact_uds(g).density == pytest.approx(
                brute_force_uds(g).density
            )

    def test_pruning_is_aggressive_on_planted_core(self):
        graph, _ = planted_dense_subgraph(
            3000, 12000, core_size=30, core_probability=1.0, seed=1
        )
        result = coreexact_uds(graph)
        # The flow network only ever sees a tiny core, not 3000 vertices.
        assert result.extras["pruned_vertices"] < 100
        assert result.density >= result.k_star / 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            coreexact_uds(UndirectedGraph.empty(1))


class TestTrussDecomposition:
    def test_triangle_is_3_truss(self, triangle_graph):
        truss, k_max = truss_decomposition(triangle_graph)
        assert k_max == 3
        assert truss.tolist() == [3, 3, 3]

    def test_tree_is_2_truss(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        truss, k_max = truss_decomposition(g)
        assert k_max == 2
        assert set(truss.tolist()) == {2}

    def test_clique_truss_number(self):
        k = 6
        g = UndirectedGraph.from_edges(
            k, [(i, j) for i in range(k) for j in range(i + 1, k)]
        )
        _, k_max = truss_decomposition(g)
        assert k_max == k  # a k-clique is a k-truss

    def test_edge_support_counts_triangles(self, fig2_graph):
        support = edge_support(fig2_graph)
        lookup = {
            tuple(e): int(s)
            for e, s in zip(fig2_graph.edges().tolist(), support)
        }
        assert lookup[(0, 1)] == 2  # in triangles with 2 and 3
        assert lookup[(3, 4)] == 0  # tail edge

    def test_empty_graph(self):
        truss, k_max = truss_decomposition(UndirectedGraph.empty(3))
        assert truss.size == 0
        assert k_max == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=12, deadline=None)
    def test_truss_numbers_match_networkx(self, seed):
        g = gnm_random_undirected(12, 34, seed=seed)
        if g.num_edges == 0:
            return
        truss, k_max = truss_decomposition(g)
        nx_graph = nx.Graph(list(map(tuple, g.edges().tolist())))
        # networkx: k-truss where each edge is in >= k - 2 triangles; an
        # edge's truss number is the largest k whose k_truss contains it.
        for k in range(2, k_max + 1):
            members = {
                tuple(sorted(e)) for e in nx.k_truss(nx_graph, k).edges()
            }
            ours = {
                tuple(e)
                for e, t in zip(g.edges().tolist(), truss)
                if t >= k
            }
            assert ours == members, k

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_truss_subgraph_support_invariant(self, seed):
        # Within the k_max-truss every edge closes >= k_max - 2 triangles.
        g = gnm_random_undirected(14, 40, seed=seed)
        if g.num_edges == 0:
            return
        truss, k_max = truss_decomposition(g)
        members = g.edges()[truss == k_max]
        sub = UndirectedGraph.from_edges(g.num_vertices, members)
        inner_support = edge_support(sub)
        assert np.all(inner_support >= k_max - 2)


class TestMaxTrussUDS:
    def test_density_bound(self):
        for seed in range(6):
            g = gnm_random_undirected(15, 45, seed=seed)
            if g.num_edges == 0:
                continue
            result = max_truss_uds(g)
            assert result.density >= (result.k_star - 1) / 2 - 1e-9

    def test_planted_clique_is_max_truss(self):
        graph, core = planted_dense_subgraph(
            1000, 4000, core_size=20, core_probability=1.0, seed=2
        )
        result = max_truss_uds(graph)
        assert set(core.tolist()) <= set(result.vertices.tolist())

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            max_truss_uds(UndirectedGraph.empty(2))

