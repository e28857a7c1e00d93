"""Unit tests for the edge-sampling protocol of Exp-4/Exp-8."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (
    DEFAULT_FRACTIONS,
    edge_fraction_series,
    gnm_random_directed,
    gnm_random_undirected,
)


class TestSeries:
    def test_default_fractions(self):
        assert DEFAULT_FRACTIONS == (0.2, 0.4, 0.6, 0.8, 1.0)

    def test_series_sizes_monotone(self):
        g = gnm_random_undirected(60, 200, seed=3)
        series = edge_fraction_series(g, seed=4)
        sizes = [sub.num_edges for _, sub in series]
        assert sizes == sorted(sizes)
        assert sizes[-1] == 200

    def test_series_nested(self):
        g = gnm_random_directed(40, 100, seed=5)
        series = edge_fraction_series(g, fractions=(0.3, 0.7), seed=6)
        small = {tuple(e) for e in series[0][1].edges().tolist()}
        large = {tuple(e) for e in series[1][1].edges().tolist()}
        assert small <= large

    def test_series_deterministic(self):
        g = gnm_random_undirected(40, 100, seed=7)
        a = edge_fraction_series(g, seed=8)
        b = edge_fraction_series(g, seed=8)
        assert all(x[1] == y[1] for x, y in zip(a, b))

    def test_zero_fraction_rejected(self):
        g = gnm_random_undirected(10, 20, seed=0)
        with pytest.raises(GraphError):
            edge_fraction_series(g, fractions=(0.0, 1.0))
