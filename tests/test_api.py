"""Tests for the top-level public API."""

import numpy as np
import pytest

from repro import (
    AlgorithmError,
    SimRuntime,
    densest_subgraph,
    directed_densest_subgraph,
)
from repro.engine import solver_names
from repro.graph import DirectedGraph, UndirectedGraph


@pytest.fixture
def toy_undirected():
    return UndirectedGraph.from_edges(
        5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
    )


@pytest.fixture
def toy_directed():
    return DirectedGraph.from_edges(
        5, [(0, 2), (1, 2), (0, 3), (1, 3), (3, 4)]
    )


class TestUDSDispatch:
    def test_default_is_pkmc(self, toy_undirected):
        result = densest_subgraph(toy_undirected)
        assert result.algorithm == "PKMC"
        assert result.vertices.tolist() == [0, 1, 2]

    def test_every_method_runs(self, toy_undirected):
        for method in solver_names("uds"):
            result = densest_subgraph(toy_undirected, method=method)
            assert result.density > 0

    def test_every_method_two_ish_approximation(self, toy_undirected):
        exact = densest_subgraph(toy_undirected, method="exact")
        for method in solver_names("uds"):
            result = densest_subgraph(toy_undirected, method=method)
            assert result.density * 3 + 1e-9 >= exact.density

    def test_unknown_method(self, toy_undirected):
        with pytest.raises(AlgorithmError, match="unknown UDS method"):
            densest_subgraph(toy_undirected, method="nope")

    def test_threads_forwarded(self, toy_undirected):
        fast = densest_subgraph(toy_undirected, num_threads=8)
        slow = densest_subgraph(toy_undirected, num_threads=1)
        assert fast.simulated_seconds != slow.simulated_seconds

    def test_explicit_runtime_honoured(self, toy_undirected):
        runtime = SimRuntime(num_threads=2)
        result = densest_subgraph(toy_undirected, runtime=runtime)
        assert result.simulated_seconds == runtime.now > 0

    def test_options_forwarded(self, toy_undirected):
        result = densest_subgraph(toy_undirected, method="pbu", epsilon=0.25)
        assert result.extras["epsilon"] == 0.25


class TestDDSDispatch:
    def test_default_is_pwc(self, toy_directed):
        result = directed_densest_subgraph(toy_directed)
        assert result.algorithm == "PWC"
        assert result.x is not None and result.y is not None

    def test_every_method_runs(self, toy_directed):
        for method in solver_names("dds"):
            result = directed_densest_subgraph(toy_directed, method=method)
            assert result.density > 0

    def test_pwc_matches_exact_within_factor_2(self, toy_directed):
        exact = directed_densest_subgraph(toy_directed, method="exact")
        approx = directed_densest_subgraph(toy_directed, method="pwc")
        assert approx.density * 2 + 1e-9 >= exact.density

    def test_unknown_method(self, toy_directed):
        with pytest.raises(AlgorithmError, match="unknown DDS method"):
            directed_densest_subgraph(toy_directed, method="nope")

    def test_options_forwarded(self, toy_directed):
        result = directed_densest_subgraph(
            toy_directed, method="pbd", delta=3.0, epsilon=0.5
        )
        assert result.extras["delta"] == 3.0


class TestExports:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
