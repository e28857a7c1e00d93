"""Unit tests for the directed dual-CSR graph."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import DirectedGraph, gnm_random_directed


class TestConstruction:
    def test_from_edges_basic(self):
        d = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        assert d.num_vertices == 3
        assert d.num_edges == 2

    def test_duplicates_collapsed(self):
        d = DirectedGraph.from_edges(2, [(0, 1), (0, 1)])
        assert d.num_edges == 1

    def test_antiparallel_edges_kept(self):
        d = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
        assert d.num_edges == 2

    def test_self_loops_dropped(self):
        d = DirectedGraph.from_edges(2, [(0, 0), (0, 1)])
        assert d.num_edges == 1

    def test_empty(self):
        d = DirectedGraph.empty(4)
        assert d.num_vertices == 4
        assert d.num_edges == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(2, [(0, 5)])

    @pytest.mark.parametrize(
        "edges",
        [
            np.array([[0.5, 1.7]]),  # would truncate to the arc 0 -> 1
            np.array([[0, 1, 2], [1, 2, 0]]),  # would re-chunk into a triangle
            np.array([0, 1, 2]),  # odd-length 1-D
        ],
        ids=["float", "three-columns", "odd-1d"],
    )
    def test_malformed_edge_array_rejected(self, edges):
        with pytest.raises(GraphError):
            DirectedGraph.from_edges(3, edges)

    def test_empty_input_of_any_dtype_is_edgeless(self):
        for edges in ([], np.empty((0, 3)), np.array([], dtype=np.float32)):
            d = DirectedGraph.from_edges(3, edges)
            assert (d.num_vertices, d.num_edges) == (3, 0)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(GraphError):
            DirectedGraph(3, np.array([0]), np.array([1, 2]))


class TestAccessors:
    def test_out_in_degrees(self, fig3_graph):
        assert fig3_graph.out_degrees().tolist() == [3, 5, 2, 1, 0, 0, 0, 0, 0]
        assert fig3_graph.in_degrees().tolist() == [0, 0, 0, 0, 2, 2, 3, 3, 1]

    def test_degree_scalars(self, fig3_graph):
        assert fig3_graph.out_degree(1) == 5
        assert fig3_graph.in_degree(7) == 3

    def test_max_degrees(self, fig3_graph):
        assert fig3_graph.max_out_degree() == 5
        assert fig3_graph.max_in_degree() == 3
        assert fig3_graph.max_degree() == 5

    def test_neighbors(self, fig3_graph):
        assert fig3_graph.out_neighbors(0).tolist() == [4, 5, 6]
        assert fig3_graph.in_neighbors(6).tolist() == [0, 1, 2]

    def test_has_edge_directionality(self, fig3_graph):
        assert fig3_graph.has_edge(0, 4)
        assert not fig3_graph.has_edge(4, 0)

    def test_edge_ids_consistent(self, fig3_graph):
        # out_edge_ids must map each out-CSR slot to the right edge row.
        edges = fig3_graph.edges()
        for v in range(fig3_graph.num_vertices):
            lo, hi = fig3_graph.out_indptr[v], fig3_graph.out_indptr[v + 1]
            for slot in range(lo, hi):
                edge_id = fig3_graph.out_edge_ids[slot]
                assert edges[edge_id, 0] == v
                assert edges[edge_id, 1] == fig3_graph.out_indices[slot]

    def test_in_edge_ids_consistent(self, fig3_graph):
        edges = fig3_graph.edges()
        for v in range(fig3_graph.num_vertices):
            lo, hi = fig3_graph.in_indptr[v], fig3_graph.in_indptr[v + 1]
            for slot in range(lo, hi):
                edge_id = fig3_graph.in_edge_ids[slot]
                assert edges[edge_id, 1] == v
                assert edges[edge_id, 0] == fig3_graph.in_indices[slot]

    def test_density_definition(self, fig3_graph):
        # S = {u1, u2} (0, 1), T = {v1, v2, v3} (4, 5, 6): 6 edges.
        rho = fig3_graph.density([0, 1], [4, 5, 6])
        assert rho == pytest.approx(6 / np.sqrt(2 * 3))

    def test_density_empty_side(self, fig3_graph):
        assert fig3_graph.density([], [4]) == 0.0

    def test_density_overlapping_sets(self):
        d = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
        assert d.density([0, 1], [0, 1]) == pytest.approx(2 / 2)


class TestDerivedGraphs:
    def test_reversed(self, fig3_graph):
        rev = fig3_graph.reversed()
        assert rev.num_edges == fig3_graph.num_edges
        assert rev.has_edge(4, 0)
        assert not rev.has_edge(0, 4)

    def test_reversed_twice_identity(self, fig3_graph):
        assert fig3_graph.reversed().reversed() == fig3_graph

    def test_subgraph_from_edge_mask(self, fig3_graph):
        mask = np.zeros(fig3_graph.num_edges, dtype=bool)
        mask[:3] = True
        sub = fig3_graph.subgraph_from_edge_mask(mask)
        assert sub.num_edges == 3

    def test_induced_subgraph(self, fig3_graph):
        sub, ids = fig3_graph.induced_subgraph([0, 1, 4, 5, 6])
        assert sub.num_edges == 6
        assert ids.tolist() == [0, 1, 4, 5, 6]

    def test_st_induced_subgraph(self, fig3_graph):
        sub = fig3_graph.st_induced_subgraph([0, 1], [4, 5, 6])
        assert sub.num_edges == 6
        assert sub.num_vertices == fig3_graph.num_vertices

    def test_to_undirected(self):
        d = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
        g = d.to_undirected()
        assert g.num_edges == 2  # 0-1 collapses

    def test_equality_order_independent(self):
        a = DirectedGraph.from_edges(3, [(0, 1), (1, 2)])
        b = DirectedGraph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b


class TestProperties:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_degree_sums_match_edges(self, seed):
        d = gnm_random_directed(15, 40, seed=seed)
        assert d.out_degrees().sum() == d.num_edges
        assert d.in_degrees().sum() == d.num_edges

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_reverse_swaps_degree_arrays(self, seed):
        d = gnm_random_directed(12, 30, seed=seed)
        rev = d.reversed()
        assert np.array_equal(rev.out_degrees(), d.in_degrees())
        assert np.array_equal(rev.in_degrees(), d.out_degrees())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_edges_round_trip(self, seed):
        d = gnm_random_directed(12, 30, seed=seed)
        rebuilt = DirectedGraph.from_edges(d.num_vertices, d.edges())
        assert rebuilt == d
