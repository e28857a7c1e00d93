"""Unit tests for graph statistics helpers."""

import numpy as np
import pytest

from repro.graph import (
    DirectedGraph,
    UndirectedGraph,
    powerlaw_exponent_estimate,
    summarize,
    summarize_directed,
)


class TestSummaries:
    def test_summarize(self, fig2_graph):
        summary = summarize(fig2_graph)
        assert summary.num_vertices == 8
        assert summary.num_edges == 10
        assert summary.max_degree == 4
        assert summary.density == pytest.approx(10 / 8)

    def test_summarize_empty(self):
        summary = summarize(UndirectedGraph.empty(0))
        assert summary.mean_degree == 0.0

    def test_summarize_directed(self, fig3_graph):
        summary = summarize_directed(fig3_graph)
        assert summary.max_out_degree == 5
        assert summary.max_in_degree == 3
        assert summary.num_edges == 11


class TestHistogramAndTail:
    def test_hill_estimator_on_pareto(self):
        # Integer (degree-like) Pareto sample; the estimator's d_min - 0.5
        # shift is the standard discrete continuity correction.
        rng = np.random.default_rng(0)
        alpha = 2.5
        continuous = (1 - rng.random(50_000)) ** (-1 / (alpha - 1))
        sample = np.floor(continuous + 0.5)
        estimate = powerlaw_exponent_estimate(sample, d_min=2)
        assert estimate == pytest.approx(alpha, abs=0.3)

    def test_hill_estimator_insufficient_data(self):
        assert np.isnan(powerlaw_exponent_estimate(np.array([1.0])))
