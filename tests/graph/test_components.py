"""Tests for connected-component helpers."""

import numpy as np
import pytest

from repro.graph import (
    UndirectedGraph,
    component_of_vertices,
    connected_components,
    densest_component,
    gnm_random_undirected,
)


@pytest.fixture
def two_triangles():
    """Two disjoint triangles: {0,1,2} and {3,4,5}, plus isolated 6."""
    return UndirectedGraph.from_edges(
        7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )


class TestConnectedComponents:
    def test_two_triangles(self, two_triangles):
        labels = connected_components(two_triangles)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]
        assert labels[6] not in (labels[0], labels[3])

    def test_connected_graph_single_label(self, fig2_graph):
        labels = connected_components(fig2_graph)
        assert np.unique(labels).size == 1

    def test_empty_graph(self):
        assert connected_components(UndirectedGraph.empty(0)).size == 0

    def test_edgeless_graph_all_singletons(self):
        labels = connected_components(UndirectedGraph.empty(4))
        assert np.unique(labels).size == 4

    def test_matches_networkx(self):
        import networkx as nx

        g = gnm_random_undirected(30, 25, seed=5)
        labels = connected_components(g)
        nx_graph = nx.Graph(list(map(tuple, g.edges().tolist())))
        nx_graph.add_nodes_from(range(g.num_vertices))
        for component in nx.connected_components(nx_graph):
            members = sorted(component)
            assert np.unique(labels[members]).size == 1


class TestComponentSplitting:
    def test_split_core_like_set(self, two_triangles):
        groups = component_of_vertices(two_triangles, np.arange(6))
        assert len(groups) == 2
        assert sorted(map(tuple, (g.tolist() for g in groups))) == [
            (0, 1, 2), (3, 4, 5),
        ]

    def test_empty_selection(self, two_triangles):
        assert component_of_vertices(two_triangles, np.array([])) == []

    def test_largest_first(self, fig2_graph):
        groups = component_of_vertices(fig2_graph, np.array([0, 1, 2, 6, 7]))
        assert groups[0].tolist() == [0, 1, 2]
        assert groups[1].tolist() == [6, 7]

    def test_densest_component(self):
        # A triangle (rho = 1) and a single edge (rho = 0.5).
        g = UndirectedGraph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        vertices, density = densest_component(g, np.arange(5))
        assert vertices.tolist() == [0, 1, 2]
        assert density == 1.0

    def test_densest_component_of_multi_component_kstar_core(self):
        # Two disjoint K4s: both are components of the 3-core; each is a
        # valid 2-approximation, as the paper notes.
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]
        g = UndirectedGraph.from_edges(8, edges)
        from repro.core import pkmc

        core = pkmc(g)
        assert core.num_vertices == 8  # both components in the k*-core
        groups = component_of_vertices(g, core.vertices)
        assert len(groups) == 2
        vertices, density = densest_component(g, core.vertices)
        assert density == pytest.approx(6 / 4)
