"""Tests for the [x, y]-core peeling primitives (Definition 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import xy_core
from repro.graph import DirectedGraph, gnm_random_directed


def _violates(graph, core):
    """Return True if any core member breaks its degree constraint."""
    sub = graph.subgraph_from_edge_mask(core.edge_mask)
    dout = sub.out_degrees()
    din = sub.in_degrees()
    s_bad = any(dout[v] < core.x for v in core.s)
    t_bad = any(din[v] < core.y for v in core.t)
    return s_bad or t_bad


class TestXYCore:
    def test_fig4_43_core(self, fig4_graph):
        core = xy_core(fig4_graph, 4, 3)
        assert core.exists
        assert core.s.tolist() == [0, 1, 2]
        assert core.t.tolist() == [4, 5, 6, 7]
        assert core.num_edges == 12
        assert core.density() == pytest.approx(12 / np.sqrt(3 * 4))

    def test_fig4_62_core_missing(self, fig4_graph):
        # Paper Example 4: the weight-12 edges with pair [6, 2] are not a core.
        assert not xy_core(fig4_graph, 6, 2).exists

    def test_11_core_is_whole_active_graph(self, fig3_graph):
        core = xy_core(fig3_graph, 1, 1)
        assert core.exists
        assert core.num_edges == fig3_graph.num_edges

    def test_invalid_thresholds(self, fig3_graph):
        with pytest.raises(ValueError):
            xy_core(fig3_graph, 0, 1)

    def test_respects_edge_mask(self, fig4_graph):
        empty_mask = np.zeros(fig4_graph.num_edges, dtype=bool)
        core = xy_core(fig4_graph, 1, 1, edge_mask=empty_mask)
        assert not core.exists

    def test_degree_constraints_hold(self, small_random_directed):
        for seed in range(10):
            d = small_random_directed(seed, n=10, m=35)
            if d.num_edges == 0:
                continue
            core = xy_core(d, 2, 2)
            if core.exists:
                assert not _violates(d, core)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_maximality_against_brute_force(self, seed, x, y):
        # Peeling must find the union of all (S, T) pairs satisfying the
        # constraints — checked against subset enumeration on tiny graphs.
        d = gnm_random_directed(6, 16, seed=seed)
        if d.num_edges == 0:
            return
        core = xy_core(d, x, y)
        n = d.num_vertices
        best_edges = -1
        found = False
        for s_mask in range(1, 1 << n):
            s_members = np.flatnonzero((s_mask >> np.arange(n)) & 1)
            for t_mask in range(1, 1 << n):
                t_members = np.flatnonzero((t_mask >> np.arange(n)) & 1)
                block = d.st_induced_subgraph(s_members, t_members)
                dout = block.out_degrees()
                din = block.in_degrees()
                if all(dout[v] >= x for v in s_members) and all(
                    din[v] >= y for v in t_members
                ):
                    found = True
                    best_edges = max(best_edges, block.num_edges)
        assert core.exists == found
        if found:
            # The maximal core contains every feasible pair.
            assert core.num_edges >= best_edges

