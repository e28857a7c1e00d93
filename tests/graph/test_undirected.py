"""Unit tests for the undirected CSR graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import UndirectedGraph, gnm_random_undirected


class TestConstruction:
    def test_from_edges_basic(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_duplicate_edges_collapsed(self):
        g = UndirectedGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = UndirectedGraph.from_edges(3, [(0, 0), (1, 1), (0, 1)])
        assert g.num_edges == 1

    def test_empty_graph(self):
        g = UndirectedGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.density() == 0.0

    def test_zero_vertex_graph(self):
        g = UndirectedGraph.empty(0)
        assert g.num_vertices == 0
        assert g.max_degree() == 0

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph.from_edges(2, [(0, 2)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph.from_edges(2, [(-1, 0)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph.from_edges(-1, [])

    @pytest.mark.parametrize(
        "edges",
        [
            np.array([[0.5, 1.7]]),  # would truncate to the edge (0, 1)
            np.array([[0, 1, 2], [1, 2, 0]]),  # would re-chunk into a triangle
            np.array([0, 1, 2]),  # odd-length 1-D
        ],
        ids=["float", "three-columns", "odd-1d"],
    )
    def test_malformed_edge_array_rejected(self, edges):
        with pytest.raises(GraphError):
            UndirectedGraph.from_edges(3, edges)

    def test_empty_input_of_any_dtype_is_edgeless(self):
        for edges in ([], np.empty((0, 3)), np.array([], dtype=np.float32)):
            g = UndirectedGraph.from_edges(3, edges)
            assert (g.num_vertices, g.num_edges) == (3, 0)

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph(np.array([0, 5]), np.array([1, 0]))

    def test_odd_adjacency_rejected(self):
        with pytest.raises(GraphError):
            UndirectedGraph(np.array([0, 1]), np.array([0]))


class TestAccessors:
    def test_degrees(self, fig2_graph):
        degrees = fig2_graph.degrees()
        assert degrees.tolist() == [3, 3, 3, 4, 2, 2, 2, 1]

    def test_degree_scalar(self, fig2_graph):
        assert fig2_graph.degree(3) == 4
        assert fig2_graph.degree(7) == 1

    def test_max_degree(self, fig2_graph):
        assert fig2_graph.max_degree() == 4

    def test_neighbors_sorted(self, fig2_graph):
        assert fig2_graph.neighbors(3).tolist() == [0, 1, 2, 4]

    def test_has_edge(self, fig2_graph):
        assert fig2_graph.has_edge(0, 1)
        assert fig2_graph.has_edge(1, 0)
        assert not fig2_graph.has_edge(0, 7)

    def test_edges_canonical(self, fig2_graph):
        edges = fig2_graph.edges()
        assert edges.shape == (10, 2)
        assert np.all(edges[:, 0] < edges[:, 1])

    def test_iter_edges_matches_edges(self, fig2_graph):
        assert list(fig2_graph.iter_edges()) == [
            tuple(row) for row in fig2_graph.edges().tolist()
        ]

    def test_density(self, triangle_graph):
        assert triangle_graph.density() == 1.0

    def test_memory_bytes_positive(self, fig2_graph):
        assert fig2_graph.memory_bytes() > 0

    def test_memory_bytes_accounts_for_scratch(self):
        # Fresh instance: the module-scoped fixtures may already carry
        # scratch buffers from earlier tests.
        g = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        structural = g.memory_bytes(include_scratch=False)
        assert structural == g.indptr.nbytes + g.indices.nbytes
        assert g.memory_bytes() == structural

        expected = structural
        expected += g.degrees().nbytes
        assert g.memory_bytes() == expected
        expected += g.heads().nbytes
        assert g.memory_bytes() == expected
        bin_ptr, bin_rows = g.hindex_bins()
        expected += bin_ptr.nbytes + bin_rows.nbytes
        assert g.memory_bytes() == expected
        # Re-requesting cached buffers must not grow the accounting.
        g.degrees(), g.heads(), g.hindex_bins()
        assert g.memory_bytes() == expected
        assert g.memory_bytes(include_scratch=False) == structural


class TestDerivedGraphs:
    def test_induced_subgraph_of_clique(self, fig2_graph):
        sub, ids = fig2_graph.induced_subgraph([0, 1, 2, 3])
        assert ids.tolist() == [0, 1, 2, 3]
        assert sub.num_edges == 6  # the K4

    def test_induced_subgraph_relabels(self, fig2_graph):
        sub, ids = fig2_graph.induced_subgraph([3, 4, 5])
        assert sub.num_vertices == 3
        assert sub.num_edges == 2  # 3-4 and 4-5
        assert ids.tolist() == [3, 4, 5]

    def test_induced_subgraph_out_of_range(self, fig2_graph):
        with pytest.raises(GraphError):
            fig2_graph.induced_subgraph([99])

    def test_subgraph_from_edge_mask(self, triangle_graph):
        mask = np.array([True, False, True])
        sub = triangle_graph.subgraph_from_edge_mask(mask)
        assert sub.num_edges == 2
        assert sub.num_vertices == 3

    def test_subgraph_from_edge_mask_wrong_length(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.subgraph_from_edge_mask(np.array([True]))

    def test_relabeled_is_isomorphic(self, fig2_graph):
        perm = np.array([7, 6, 5, 4, 3, 2, 1, 0])
        relabeled = fig2_graph.relabeled(perm)
        assert relabeled.num_edges == fig2_graph.num_edges
        assert sorted(relabeled.degrees().tolist()) == sorted(
            fig2_graph.degrees().tolist()
        )

    def test_relabeled_requires_bijection(self, triangle_graph):
        with pytest.raises(GraphError):
            triangle_graph.relabeled(np.array([0, 0, 1]))

    def test_equality(self, triangle_graph):
        same = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert triangle_graph == same
        other = UndirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        assert triangle_graph != other


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_handshake_lemma(self, seed):
        g = gnm_random_undirected(20, 40, seed=seed)
        assert g.degrees().sum() == 2 * g.num_edges

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_neighbors_symmetric(self, seed):
        g = gnm_random_undirected(15, 30, seed=seed)
        for u, v in g.iter_edges():
            assert v in g.neighbors(u).tolist()
            assert u in g.neighbors(v).tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_edges_round_trip(self, seed):
        g = gnm_random_undirected(15, 30, seed=seed)
        rebuilt = UndirectedGraph.from_edges(g.num_vertices, g.edges())
        assert rebuilt == g
