"""Edge-case sweep across the public API surface.

Degenerate inputs (empty masks, overlapping S/T, singleton graphs,
star graphs) that the mainline tests do not exercise.
"""

import numpy as np
import pytest

from repro import densest_subgraph, directed_densest_subgraph
from repro.core import h_index, pkmc, pwc
from repro.errors import EmptyGraphError
from repro.graph import DirectedGraph, UndirectedGraph


class TestDegenerateGraphs:
    def test_single_edge_undirected(self):
        g = UndirectedGraph.from_edges(2, [(0, 1)])
        result = densest_subgraph(g)
        assert result.density == pytest.approx(0.5)
        assert result.k_star == 1

    def test_star_graph_uds(self):
        # Star: k* = 1; the whole star has density (n-1)/n -> the k*-core
        # is everything and density approaches 1.
        n = 12
        g = UndirectedGraph.from_edges(n, [(0, i) for i in range(1, n)])
        result = densest_subgraph(g)
        assert result.k_star == 1
        assert result.density == pytest.approx((n - 1) / n)

    def test_two_cliques_different_sizes(self):
        # K5 and K3: the k*-core is exactly the K5.
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i, j) for i in range(5, 8) for j in range(i + 1, 8)]
        g = UndirectedGraph.from_edges(8, edges)
        result = densest_subgraph(g)
        assert result.vertices.tolist() == [0, 1, 2, 3, 4]

    def test_directed_cycle(self):
        # A directed n-cycle: every [1,1]-core is the whole thing; density
        # n/sqrt(n*n) = 1.
        n = 6
        d = DirectedGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        result = directed_densest_subgraph(d)
        assert result.density == pytest.approx(1.0)
        assert (result.x, result.y) == (1, 1)

    def test_directed_bidirectional_pair(self):
        d = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
        result = directed_densest_subgraph(d)
        assert result.density == pytest.approx(1.0)

    def test_all_methods_reject_empty(self):
        from repro.engine import solver_names

        g = UndirectedGraph.empty(3)
        d = DirectedGraph.empty(3)
        for method in solver_names("uds"):
            with pytest.raises((EmptyGraphError, ValueError)):
                densest_subgraph(g, method=method)
        for method in solver_names("dds"):
            with pytest.raises((EmptyGraphError, ValueError)):
                directed_densest_subgraph(d, method=method)


class TestMaskEdgeCases:
    def test_all_false_edge_mask(self, fig2_graph):
        sub = fig2_graph.subgraph_from_edge_mask(
            np.zeros(fig2_graph.num_edges, dtype=bool)
        )
        assert sub.num_edges == 0
        assert sub.num_vertices == fig2_graph.num_vertices

    def test_all_true_edge_mask(self, fig2_graph):
        sub = fig2_graph.subgraph_from_edge_mask(
            np.ones(fig2_graph.num_edges, dtype=bool)
        )
        assert sub == fig2_graph

    def test_st_induced_with_overlap(self):
        d = DirectedGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        sub = d.st_induced_subgraph([0, 1, 2], [0, 1, 2])
        assert sub.num_edges == 3

    def test_induced_subgraph_empty_selection(self, fig2_graph):
        sub, ids = fig2_graph.induced_subgraph([])
        assert sub.num_vertices == 0
        assert ids.size == 0


class TestHIndexEdgeCases:
    def test_all_zero_values(self):
        assert h_index(np.zeros(10, dtype=np.int64)) == 0

    def test_huge_uniform_values(self):
        assert h_index(np.full(7, 10**9)) == 7

    def test_pkmc_on_disconnected_equal_cliques(self):
        # Two identical K4s: both are in the k*-core (paper remark: any
        # connected component is a valid answer).
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
        g = UndirectedGraph.from_edges(8, edges)
        result = pkmc(g)
        assert result.num_vertices == 8
        assert result.k_star == 3

    def test_pwc_on_two_equal_blocks(self):
        # Two disjoint 2x2 complete blocks: same w*; the returned core is
        # their union (both satisfy the constraints).
        edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
        edges += [(4, 6), (4, 7), (5, 6), (5, 7)]
        d = DirectedGraph.from_edges(8, edges)
        result = pwc(d)
        assert result.w_star == 4
        assert (result.x, result.y) == (2, 2)
        assert result.s_size == 4  # both blocks' sources


class TestResultConsistency:
    def test_uds_density_matches_reported_vertices(self, small_random_undirected):
        from repro.algorithms.undirected.common import induced_density

        for method in ("pkmc", "local", "pkc", "charikar", "greedypp"):
            for seed in range(3):
                g = small_random_undirected(seed)
                if g.num_edges == 0:
                    continue
                result = densest_subgraph(g, method=method)
                assert induced_density(g, result.vertices) == pytest.approx(
                    result.density
                ), (method, seed)

    def test_dds_density_matches_reported_sets(self, small_random_directed):
        for method in ("pwc", "pxy"):
            for seed in range(3):
                d = small_random_directed(seed)
                if d.num_edges == 0:
                    continue
                result = directed_densest_subgraph(d, method=method)
                assert d.density(result.s, result.t) == pytest.approx(
                    result.density
                ), (method, seed)
