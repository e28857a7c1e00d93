"""Integration of the SimRuntime accounting with every algorithm.

These tests pin down the *contract* between algorithms and the simulated
runtime: passing a runtime must never change an answer, must advance the
clock, and more threads must not make the work-dominated algorithms
slower (the overhead-dominated ones — PKC, PBD — are allowed to degrade,
that is their paper-documented behaviour).
"""

import numpy as np
import pytest

from repro.core import pkmc, pwc, winduced_subgraph, wstar_subgraph, xy_core
from repro.graph import chung_lu_directed, chung_lu_undirected
from repro.runtime import SimRuntime


@pytest.fixture(scope="module")
def undirected():
    return chung_lu_undirected(2_000, 10_000, seed=0)


@pytest.fixture(scope="module")
def directed():
    return chung_lu_directed(2_000, 10_000, seed=1)


class TestAnswersUnchangedByRuntime:
    def test_pkmc(self, undirected):
        bare = pkmc(undirected)
        timed = pkmc(undirected, runtime=SimRuntime(8))
        assert bare.k_star == timed.k_star
        assert bare.vertices.tolist() == timed.vertices.tolist()
        assert timed.simulated_seconds > 0

    def test_pwc(self, directed):
        bare = pwc(directed)
        timed = pwc(directed, runtime=SimRuntime(8))
        assert (bare.x, bare.y, bare.w_star) == (timed.x, timed.y, timed.w_star)
        assert timed.simulated_seconds > 0

    def test_xy_core(self, directed):
        rt = SimRuntime(4)
        bare = xy_core(directed, 2, 2)
        timed = xy_core(directed, 2, 2, runtime=rt)
        assert np.array_equal(bare.edge_mask, timed.edge_mask)
        assert rt.now > 0
        assert rt.metrics.parallel_loops == timed.rounds

    def test_winduced_subgraph(self, directed):
        rt = SimRuntime(4)
        bare = winduced_subgraph(directed, 4)
        timed = winduced_subgraph(directed, 4, runtime=rt)
        assert np.array_equal(bare, timed)
        assert rt.now > 0

    def test_wstar_subgraph(self, directed):
        rt = SimRuntime(4)
        bare = wstar_subgraph(directed)
        timed = wstar_subgraph(directed, runtime=rt)
        assert bare.w_star == timed.w_star
        assert rt.now > 0


class TestThreadScalingContract:
    @pytest.mark.parametrize("method", ["pkmc", "local", "pbu", "pfw"])
    def test_uds_work_dominated_algorithms_speed_up(self, undirected, method):
        from repro import densest_subgraph

        kwargs = {"num_rounds": 64} if method == "pfw" else {}
        t1 = densest_subgraph(
            undirected, method=method, num_threads=1, **kwargs
        ).simulated_seconds
        t16 = densest_subgraph(
            undirected, method=method, num_threads=16, **kwargs
        ).simulated_seconds
        assert t16 < t1

    @pytest.mark.parametrize("method", ["pwc", "pxy"])
    def test_dds_algorithms_speed_up(self, directed, method):
        from repro import directed_densest_subgraph

        t1 = directed_densest_subgraph(
            directed, method=method, num_threads=1
        ).simulated_seconds
        t16 = directed_densest_subgraph(
            directed, method=method, num_threads=16
        ).simulated_seconds
        assert t16 < t1

    def test_same_threads_same_time(self, undirected):
        a = pkmc(undirected, runtime=SimRuntime(8)).simulated_seconds
        b = pkmc(undirected, runtime=SimRuntime(8)).simulated_seconds
        assert a == b

    def test_breakdown_explains_total(self, undirected):
        rt = SimRuntime(16)
        pkmc(undirected, runtime=rt)
        assert rt.breakdown.total == pytest.approx(rt.now)
        assert rt.breakdown.work > 0
        assert rt.metrics.parallel_loops > 0
