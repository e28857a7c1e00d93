"""Tests for w-induced subgraphs (Algorithm 3), incl. the paper's Table 3."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    edge_weights,
    winduced_decomposition,
    winduced_subgraph,
    wstar_subgraph,
)
from repro.errors import EmptyGraphError
from repro.graph import DirectedGraph, gnm_random_directed, planted_st_subgraph
from tests.conftest import FIG3_INDUCE_NUMBERS


class TestEdgeWeights:
    def test_fig3_initial_weights(self, fig3_graph):
        # Paper Example 2: w(u1, v3) = d+(u1) * d-(v3) = 3 * 3 = 9.
        weights = edge_weights(fig3_graph)
        edges = fig3_graph.edges()
        lookup = {tuple(e): int(w) for e, w in zip(edges.tolist(), weights)}
        assert lookup[(0, 6)] == 9
        assert lookup[(3, 7)] == 3   # (u4, v4): 1 * 3
        assert lookup[(1, 8)] == 5   # (u2, v5): 5 * 1

    def test_masked_weights(self, fig3_graph):
        mask = np.zeros(fig3_graph.num_edges, dtype=bool)
        mask[:1] = True
        weights = edge_weights(fig3_graph, edge_mask=mask)
        assert np.count_nonzero(weights) == 1
        assert weights[mask][0] == 1  # lone edge: degrees 1 * 1

    def test_weights_vs_definition(self, small_random_directed):
        d = small_random_directed(0, n=10, m=30)
        weights = edge_weights(d)
        dout, din = d.out_degrees(), d.in_degrees()
        for e, (u, v) in enumerate(d.iter_edges()):
            assert weights[e] == dout[u] * din[v]


class TestDecomposition:
    def test_paper_table3(self, fig3_graph):
        induce, w_star = winduced_decomposition(fig3_graph)
        assert w_star == 6
        lookup = {
            tuple(e): int(w)
            for e, w in zip(fig3_graph.edges().tolist(), induce)
        }
        assert lookup == FIG3_INDUCE_NUMBERS

    def test_empty_graph(self):
        induce, w_star = winduced_decomposition(DirectedGraph.empty(3))
        assert induce.size == 0
        assert w_star == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_induce_number_definition(self, seed):
        # induce(e) must be the largest w whose w-induced subgraph keeps e.
        d = gnm_random_directed(8, 20, seed=seed)
        if d.num_edges == 0:
            return
        induce, w_star = winduced_decomposition(d)
        candidate_ws = sorted(set(induce.tolist()))
        for w in candidate_ws:
            members = winduced_subgraph(d, w)
            assert np.array_equal(members, induce >= w)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_wstar_is_max_induce_number(self, seed):
        d = gnm_random_directed(9, 24, seed=seed)
        if d.num_edges == 0:
            return
        induce, w_star = winduced_decomposition(d)
        assert w_star == induce.max()


class TestWInducedSubgraph:
    def test_fig3_six_induced(self, fig3_graph):
        mask = winduced_subgraph(fig3_graph, 6)
        kept = {tuple(e) for e in fig3_graph.edges()[mask].tolist()}
        expected = {(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6)}
        assert kept == expected

    def test_weight_invariant(self, fig3_graph):
        mask = winduced_subgraph(fig3_graph, 6)
        weights = edge_weights(fig3_graph, edge_mask=mask)
        assert weights[mask].min() >= 6

    def test_above_wstar_empty(self, fig3_graph):
        mask = winduced_subgraph(fig3_graph, 7)
        assert not mask.any()

    def test_w_zero_keeps_everything(self, fig3_graph):
        assert winduced_subgraph(fig3_graph, 0).all()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_nested_property(self, seed, w_small, w_large):
        # Proposition 3: a larger threshold yields a subset.
        if w_small > w_large:
            w_small, w_large = w_large, w_small
        d = gnm_random_directed(10, 28, seed=seed)
        if d.num_edges == 0:
            return
        big = winduced_subgraph(d, w_small)
        small = winduced_subgraph(d, w_large)
        assert np.all(~small | big)  # small implies big


class TestWStarSubgraph:
    def test_fig3(self, fig3_graph):
        result = wstar_subgraph(fig3_graph)
        assert result.w_star == 6
        kept = {tuple(e) for e in fig3_graph.edges()[result.edge_mask].tolist()}
        assert kept == {(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6)}

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraphError):
            wstar_subgraph(DirectedGraph.empty(2))

    def test_sizes_recorded(self, fig3_graph):
        result = wstar_subgraph(fig3_graph)
        assert result.size_wstar == 6
        assert result.size_after_prune >= result.size_wstar

    def test_dmax_pruning_changes_nothing(self, small_random_directed):
        # The Remark's w >= d_max shortcut must not affect the answer.
        for seed in range(8):
            d = small_random_directed(seed, n=10, m=30)
            if d.num_edges == 0:
                continue
            fast = wstar_subgraph(d, start_at_dmax=True)
            slow = wstar_subgraph(d, start_at_dmax=False)
            assert fast.w_star == slow.w_star
            assert np.array_equal(fast.edge_mask, slow.edge_mask)

    def test_wstar_at_least_dmax(self, small_random_directed):
        # The Remark itself: w* >= d_max.
        for seed in range(8):
            d = small_random_directed(seed, n=10, m=30)
            if d.num_edges == 0:
                continue
            result = wstar_subgraph(d)
            assert result.w_star >= d.max_degree()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_decomposition(self, seed):
        d = gnm_random_directed(9, 26, seed=seed)
        if d.num_edges == 0:
            return
        fast = wstar_subgraph(d)
        induce, w_star = winduced_decomposition(d)
        assert fast.w_star == w_star
        assert np.array_equal(fast.edge_mask, induce == w_star)

    # The level trace of a seeded graph is deterministic: both frontier
    # modes must reproduce these level sizes, round counts and
    # post-prune sizes exactly.
    PINNED_LEVELS = {
        "planted-st": dict(
            w_star=99, rounds=24, size_after_prune=217, size_wstar=152,
            level_sizes=[(65, 217), (99, 152)],
        ),
        "gnm": dict(
            w_star=20, rounds=45, size_after_prune=1066, size_wstar=801,
            level_sizes=[(16, 1066), (18, 938), (20, 801)],
        ),
    }

    @staticmethod
    def _pinned_graph(name):
        if name == "planted-st":
            return planted_st_subgraph(300, 1500, 12, 14, seed=5)[0]
        return gnm_random_directed(200, 1200, seed=3)

    @pytest.mark.parametrize("frontier", [True, False], ids=["frontier", "full-scan"])
    @pytest.mark.parametrize("name", ["planted-st", "gnm"])
    def test_level_trace_pinned(self, name, frontier):
        result = wstar_subgraph(self._pinned_graph(name), frontier=frontier)
        pinned = self.PINNED_LEVELS[name]
        assert result.level_sizes == pinned["level_sizes"]
        assert result.rounds == pinned["rounds"]
        assert result.size_after_prune == pinned["size_after_prune"]
        assert result.w_star == pinned["w_star"]
        assert result.size_wstar == pinned["size_wstar"]
