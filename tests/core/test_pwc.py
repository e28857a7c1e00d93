"""Tests for PWC (Algorithm 4), incl. the paper's Examples 3-4 behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    derive_cn_pair_collapse,
    derive_cn_pair_divisor,
    pwc,
    wstar_subgraph,
    xy_core,
)
from repro.errors import EmptyGraphError
from repro.graph import DirectedGraph, gnm_random_directed, planted_st_subgraph
from repro.runtime import SimRuntime


def max_core_product(graph):
    """x*·y*: the largest x·y for which an [x, y]-core exists (brute force)."""
    return max(
        (
            x * y
            for x in range(1, graph.max_out_degree() + 1)
            for y in range(1, graph.max_in_degree() + 1)
            if xy_core(graph, x, y).exists
        ),
        default=0,
    )


class TestPaperFig4:
    def test_wstar_and_cn_pair(self, fig4_graph):
        result = pwc(fig4_graph)
        assert result.w_star == 12
        assert (result.x, result.y) == (4, 3)

    def test_core_sets(self, fig4_graph):
        result = pwc(fig4_graph)
        assert result.s.tolist() == [0, 1, 2]
        assert result.t.tolist() == [4, 5, 6, 7]
        assert result.density == pytest.approx(12 / np.sqrt(12))

    def test_collapse_extraction_used(self, fig4_graph):
        result = pwc(fig4_graph, extraction="collapse")
        assert not result.extras["extraction_fallback"]

    def test_divisor_extraction_same_answer(self, fig4_graph):
        a = pwc(fig4_graph, extraction="collapse")
        b = pwc(fig4_graph, extraction="divisor")
        assert (a.x, a.y) == (b.x, b.y)

    def test_fig3_theorem2(self, fig3_graph):
        # Theorem 2: w* = x* . y*; here w* = 6 with cn-pair [3, 2].
        result = pwc(fig3_graph)
        assert result.w_star == 6
        assert result.x * result.y == 6


class TestCnPairDerivation:
    def test_divisor_raises_on_impossible(self, fig4_graph):
        wstar = wstar_subgraph(fig4_graph)
        x, y, core = derive_cn_pair_divisor(fig4_graph, wstar)
        assert (x, y) == (4, 3)
        assert core.exists

    def test_collapse_on_fig4(self, fig4_graph):
        wstar = wstar_subgraph(fig4_graph)
        pair = derive_cn_pair_collapse(fig4_graph, wstar)
        assert pair == (4, 3)


class TestCorrectness:
    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            pwc(DirectedGraph.empty(4))

    def test_single_edge(self):
        result = pwc(DirectedGraph.from_edges(2, [(0, 1)]))
        assert (result.x, result.y) == (1, 1)
        assert result.density == pytest.approx(1.0)

    def test_planted_block_recovered(self):
        graph, s, t = planted_st_subgraph(
            1500, 5000, s_size=14, t_size=20, block_probability=1.0, seed=6
        )
        result = pwc(graph)
        assert set(s.tolist()) <= set(result.s.tolist())
        assert set(t.tolist()) <= set(result.t.tolist())

    def test_theorem2_on_random_graphs(self, small_random_directed):
        # w* must equal the maximum x*y over all existing [x, y]-cores.
        for seed in range(8):
            d = small_random_directed(seed, n=9, m=26)
            if d.num_edges == 0:
                continue
            result = pwc(d)
            best = max_core_product(d)
            assert result.w_star >= best
            assert result.x * result.y == best

    def test_bipartite_star(self):
        # One hub with 5 in-edges: the DDS is the star, [1, 5]-core.
        edges = [(i, 5) for i in range(5)]
        result = pwc(DirectedGraph.from_edges(6, edges))
        assert result.w_star == 5
        assert (result.x, result.y) == (1, 5)
        assert result.density == pytest.approx(5 / np.sqrt(5))

    def test_extraction_modes_agree_on_product(self, small_random_directed):
        for seed in range(10):
            d = small_random_directed(seed, n=10, m=30)
            if d.num_edges == 0:
                continue
            a = pwc(d, extraction="collapse")
            b = pwc(d, extraction="divisor")
            assert a.x * a.y == b.x * b.y
            assert a.x * a.y <= a.w_star

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_core_constraints_hold(self, seed):
        d = gnm_random_directed(10, 30, seed=seed)
        if d.num_edges == 0:
            return
        result = pwc(d)
        block = d.st_induced_subgraph(result.s, result.t)
        dout = block.out_degrees()
        din = block.in_degrees()
        assert all(dout[v] >= result.x for v in result.s)
        assert all(din[v] >= result.y for v in result.t)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_start_at_dmax_is_transparent(self, seed):
        d = gnm_random_directed(10, 30, seed=seed)
        if d.num_edges == 0:
            return
        fast = pwc(d, start_at_dmax=True)
        slow = pwc(d, start_at_dmax=False)
        assert fast.w_star == slow.w_star
        assert fast.x * fast.y == slow.x * slow.y


class TestAccounting:
    def test_table7_sizes_monotone(self, fig4_graph):
        result = pwc(fig4_graph)
        assert result.extras["size_first"] >= result.extras["size_wstar"]
        assert result.extras["size_wstar"] >= result.extras["size_dds"]

    def test_simulated_time_decreases_with_threads(self):
        graph, _, _ = planted_st_subgraph(
            2000, 9000, s_size=15, t_size=20, seed=7
        )
        t1 = pwc(graph, runtime=SimRuntime(1)).simulated_seconds
        t16 = pwc(graph, runtime=SimRuntime(16)).simulated_seconds
        assert t16 < t1


class TestTheorem2Gap:
    """Regression tests for the discovered gap in the paper's Theorem 2.

    w* upper-bounds x* . y* but equality can fail: mixed out/in-degree
    combinations can keep every edge weight >= w* without any uniform
    [x, y]-core of product w*.  PWC must survive this by descending.
    """

    @pytest.fixture
    def counterexample(self):
        # gnm seed found by hypothesis: w* = 8, maximum cn-pair [2, 3].
        return gnm_random_directed(9, 26, seed=13838)

    def test_wstar_exceeds_max_product(self, counterexample):
        wstar = wstar_subgraph(counterexample)
        best = max_core_product(counterexample)
        assert wstar.w_star == 8
        assert best == 6
        assert wstar.w_star > best  # Theorem 2 equality fails here

    def test_pwc_still_returns_max_cn_pair(self, counterexample):
        result = pwc(counterexample)
        assert (result.x, result.y) == (2, 3)
        assert result.extras["theorem2_gap"] == 2

    def test_both_extractions_descend_correctly(self, counterexample):
        a = pwc(counterexample, extraction="collapse")
        b = pwc(counterexample, extraction="divisor")
        assert (a.x * a.y) == (b.x * b.y) == 6

    def test_two_approximation_still_holds(self, counterexample):
        from repro.algorithms.directed import brute_force_dds

        result = pwc(counterexample)
        exact = brute_force_dds(counterexample)
        assert result.density * 2 + 1e-9 >= exact.density

    def test_gap_zero_on_paper_examples(self, fig3_graph, fig4_graph):
        assert pwc(fig3_graph).extras["theorem2_gap"] == 0
        assert pwc(fig4_graph).extras["theorem2_gap"] == 0
