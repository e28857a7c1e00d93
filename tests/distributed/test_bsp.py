"""Tests for the simulated BSP cluster and the distributed PKMC port."""

import math

import numpy as np
import pytest

from repro.core import pkmc
from repro.distributed import BSPAccountant, ClusterConfig, distributed_pkmc
from repro.errors import EmptyGraphError, SimulationError
from repro.graph import UndirectedGraph, chung_lu_undirected, gnm_random_undirected


class TestClusterConfig:
    def test_defaults(self):
        config = ClusterConfig()
        assert config.num_workers == 8

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_workers", 0),
            ("network_bandwidth_bytes_per_s", 0.0),
            ("network_bandwidth_bytes_per_s", -1.0),
            ("network_bandwidth_bytes_per_s", math.nan),
            ("network_latency_seconds", -1.0),
            ("network_latency_seconds", math.inf),
            ("work_unit_seconds", -5e-9),
            ("barrier_seconds", -1e-4),
            ("aggregator_seconds", math.nan),
            ("bytes_per_message", 0),
            ("bytes_per_message", -12),
        ],
    )
    def test_invalid_config_rejected(self, field, value):
        # Each would break the superstep clock: a zero bandwidth divides
        # by zero, a negative latency runs it backwards, NaN poisons it.
        with pytest.raises(SimulationError, match=field):
            ClusterConfig(**{field: value})

    def test_zero_constants_allowed(self):
        config = ClusterConfig(
            work_unit_seconds=0.0,
            network_latency_seconds=0.0,
            barrier_seconds=0.0,
            aggregator_seconds=0.0,
        )
        g = gnm_random_undirected(30, 60, seed=0)
        assert distributed_pkmc(g, config).simulated_seconds >= 0.0


class TestBSPCluster:
    """The cost model: hash partition, cross edges and the accountant."""

    def test_hash_partition_covers_all(self):
        g = gnm_random_undirected(40, 80, seed=0)
        # Superstep 0 costs 2 units per vertex on its owner: one worker
        # holds all 40 vertices, four balanced workers hold 10 each.
        for workers, busiest in ((1, 40), (4, 10), (16, 3)):
            config = ClusterConfig(num_workers=workers)
            result = distributed_pkmc(g, config, max_supersteps=1)
            assert result.extras["supersteps"] == 1
            assert result.extras["compute_seconds"] == pytest.approx(
                2.0 * busiest * config.work_unit_seconds
            )

    def test_cross_edge_fraction_bounds(self):
        g = gnm_random_undirected(50, 150, seed=1)
        single = distributed_pkmc(g, ClusterConfig(num_workers=1))
        assert single.extras["cross_edge_fraction"] == 0.0
        assert single.extras["total_messages"] == 0
        many = distributed_pkmc(g, ClusterConfig(num_workers=16))
        assert 0.0 < many.extras["cross_edge_fraction"] <= 1.0

    def test_cross_fraction_grows_with_workers(self):
        g = gnm_random_undirected(100, 300, seed=2)
        fractions = [
            distributed_pkmc(
                g, ClusterConfig(num_workers=w)
            ).extras["cross_edge_fraction"]
            for w in (2, 4, 16)
        ]
        assert fractions == sorted(fractions)

    def test_superstep_advances_clock(self):
        accountant = BSPAccountant(ClusterConfig(num_workers=4), 4)
        accountant.superstep(np.ones(4), np.zeros(4))
        assert accountant.now > 0
        assert accountant.now == pytest.approx(
            accountant.compute_seconds
            + accountant.exchange_seconds
            + accountant.overhead_seconds
        )
        assert accountant.supersteps == 1

    def test_superstep_gated_by_slowest_worker(self):
        config = ClusterConfig(
            num_workers=2,
            network_latency_seconds=0.0,
            barrier_seconds=0.0,
            aggregator_seconds=0.0,
        )
        lopsided = BSPAccountant(config, 2)
        lopsided.superstep(np.array([2e6, 0.0]), np.zeros(2))
        assert lopsided.now == pytest.approx(2e6 * config.work_unit_seconds)
        # The same work spread evenly finishes in half the time.
        even = BSPAccountant(config, 2)
        even.superstep(np.array([1e6, 1e6]), np.zeros(2))
        assert even.now == pytest.approx(lopsided.now / 2)

    def test_message_bytes_charged(self):
        config = ClusterConfig(num_workers=4)
        quiet = BSPAccountant(config, 4)
        noisy = BSPAccountant(config, 4)
        quiet.superstep(np.zeros(4), np.zeros(4))
        noisy.superstep(np.zeros(4), np.full(4, 1e5))
        assert noisy.now > quiet.now
        assert noisy.exchange_seconds - quiet.exchange_seconds == pytest.approx(
            1e5 * config.bytes_per_message / config.network_bandwidth_bytes_per_s
        )
        assert noisy.total_messages == 4 * 10**5

    def test_wrong_shape_rejected(self):
        accountant = BSPAccountant(ClusterConfig(), 8)
        with pytest.raises(SimulationError):
            accountant.superstep(np.ones(3), np.zeros(8))
        with pytest.raises(SimulationError):
            accountant.superstep(np.ones(8), np.zeros(10))


class TestDistributedPKMC:
    def test_matches_shared_memory_answer(self):
        for seed in range(6):
            g = gnm_random_undirected(40, 120, seed=seed)
            if g.num_edges == 0:
                continue
            shared = pkmc(g)
            for workers in (1, 4, 16):
                dist = distributed_pkmc(g, ClusterConfig(num_workers=workers))
                assert dist.k_star == shared.k_star, (seed, workers)
                assert dist.vertices.tolist() == shared.vertices.tolist()

    def test_early_stop_matches_shared_memory(self):
        from repro.datasets import load_undirected

        g = load_undirected("PT")
        dist = distributed_pkmc(g)
        shared = pkmc(g)
        assert dist.extras["early_stop_fired"]
        assert dist.k_star == shared.k_star

    def test_disabling_early_stop_takes_longer(self):
        g = chung_lu_undirected(2000, 8000, seed=7)
        fast = distributed_pkmc(g)
        slow = distributed_pkmc(g, early_stop=False)
        assert fast.iterations <= slow.iterations
        assert fast.k_star == slow.k_star

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            distributed_pkmc(UndirectedGraph.empty(4))

    def test_communication_dominates_small_graphs(self):
        # The paper's caveat realised: for graphs that fit in one machine,
        # BSP latency makes the distributed port slower than shared memory.
        from repro.datasets import load_undirected
        from repro.runtime import SimRuntime

        g = load_undirected("PT")
        dist = distributed_pkmc(g, ClusterConfig(num_workers=32))
        shared = pkmc(g, runtime=SimRuntime(32))
        assert dist.simulated_seconds > shared.simulated_seconds

    def test_messages_shrink_after_convergence_wave(self):
        g = chung_lu_undirected(3000, 12000, seed=8)
        result = distributed_pkmc(g)
        # Silent-unless-changed: total messages well below
        # supersteps * 2m (the naive all-send volume).
        naive = result.extras["supersteps"] * 2 * g.num_edges
        assert result.extras["total_messages"] < naive

    def test_deterministic(self):
        g = gnm_random_undirected(60, 200, seed=9)
        a = distributed_pkmc(g)
        b = distributed_pkmc(g)
        assert a.simulated_seconds == b.simulated_seconds
        assert a.extras["total_messages"] == b.extras["total_messages"]


class TestDistributedPWC:
    def test_matches_shared_memory_answer(self):
        from repro.core import pwc
        from repro.distributed import distributed_pwc
        from repro.graph import gnm_random_directed

        for seed in range(6):
            d = gnm_random_directed(40, 150, seed=seed)
            if d.num_edges == 0:
                continue
            shared = pwc(d)
            for workers in (1, 4, 16):
                dist = distributed_pwc(d, ClusterConfig(num_workers=workers))
                assert dist.w_star == shared.w_star, (seed, workers)
                assert dist.x * dist.y == shared.x * shared.y

    def test_table7_sizes_preserved(self):
        from repro.core import pwc
        from repro.datasets import load_directed
        from repro.distributed import distributed_pwc

        d = load_directed("AM")
        shared = pwc(d)
        dist = distributed_pwc(d)
        assert dist.extras["size_first"] == shared.extras["size_first"]
        assert dist.extras["size_wstar"] == shared.extras["size_wstar"]

    def test_dmax_prune_saves_supersteps(self):
        from repro.datasets import load_directed
        from repro.distributed import distributed_pwc

        d = load_directed("BA")
        fast = distributed_pwc(d, start_at_dmax=True)
        slow = distributed_pwc(d, start_at_dmax=False)
        assert fast.w_star == slow.w_star
        assert fast.extras["supersteps"] < slow.extras["supersteps"]

    def test_empty_rejected(self):
        from repro.distributed import distributed_pwc
        from repro.graph import DirectedGraph

        with pytest.raises(EmptyGraphError):
            distributed_pwc(DirectedGraph.empty(3))

    def test_deterministic(self):
        from repro.distributed import distributed_pwc
        from repro.graph import gnm_random_directed

        d = gnm_random_directed(50, 200, seed=11)
        a = distributed_pwc(d)
        b = distributed_pwc(d)
        assert a.simulated_seconds == b.simulated_seconds
        assert a.extras["total_messages"] == b.extras["total_messages"]
