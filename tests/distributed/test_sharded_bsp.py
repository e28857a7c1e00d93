"""Sharded BSP supersteps are bit-identical to the monolithic solvers."""

import numpy as np
import pytest

from repro.distributed import ClusterConfig, distributed_pkmc, distributed_pwc
from repro.distributed.pkmc_bsp import _shard_cross_counts
from repro.errors import EmptyGraphError
from repro.graph.directed import DirectedGraph
from repro.graph.generators import chung_lu_directed, chung_lu_undirected
from repro.graph.undirected import UndirectedGraph
from repro.store.shard import load_sharded, save_sharded


def _sharded(graph, tmp_path, shards, **kwargs):
    save_sharded(graph, tmp_path, shards=shards)
    return load_sharded(tmp_path, **kwargs)


class TestShardedPkmc:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_bit_identical_to_monolithic(self, tmp_path, shards):
        graph = chung_lu_undirected(600, 3_000, seed=41)
        sharded = _sharded(graph, tmp_path, shards)
        mono = distributed_pkmc(graph)
        shard = distributed_pkmc(sharded)
        assert shard.density == mono.density
        assert shard.k_star == mono.k_star
        assert shard.iterations == mono.iterations
        assert np.array_equal(shard.vertices, mono.vertices)
        assert shard.extras["history"] == mono.extras["history"]
        assert shard.extras["supersteps"] == mono.extras["supersteps"]
        assert shard.extras["early_stop_fired"] == mono.extras["early_stop_fired"]

    def test_no_early_stop_matches_too(self, tmp_path):
        graph = chung_lu_undirected(400, 1_500, seed=42)
        sharded = _sharded(graph, tmp_path, 4)
        mono = distributed_pkmc(graph, early_stop=False)
        shard = distributed_pkmc(sharded, early_stop=False)
        assert np.array_equal(shard.vertices, mono.vertices)
        assert shard.extras["supersteps"] == mono.extras["supersteps"]

    def test_sanitize_path_matches(self, tmp_path):
        graph = chung_lu_undirected(300, 1_200, seed=43)
        sharded = _sharded(graph, tmp_path, 3)
        mono = distributed_pkmc(graph, sanitize=True)
        shard = distributed_pkmc(sharded, sanitize=True)
        assert shard.k_star == mono.k_star
        assert np.array_equal(shard.vertices, mono.vertices)

    def test_runs_under_memory_budget(self, tmp_path):
        graph = chung_lu_undirected(600, 3_000, seed=44)
        unbudgeted = _sharded(graph, tmp_path, 6)
        sizes = [unbudgeted.shard(i).nbytes for i in range(6)]
        budget = sum(sorted(sizes)[-2:]) + 8  # two shards fit
        sharded = _sharded(graph, tmp_path, 6, memory_budget_bytes=budget)
        shard = distributed_pkmc(sharded)
        mono = distributed_pkmc(graph)
        assert np.array_equal(shard.vertices, mono.vertices)
        stats = shard.extras["shard_stats"]
        assert stats["peak_resident_bytes"] <= budget
        assert stats["evictions"] > 0
        assert stats["boundary_messages_bytes"] > 0

    def test_direct_entry_point_and_extras(self, tmp_path):
        graph = chung_lu_undirected(300, 1_200, seed=45)
        sharded = _sharded(graph, tmp_path, 3)
        # One worker per shard: the config's worker count is ignored.
        result = distributed_pkmc(sharded, config=ClusterConfig(num_workers=5))
        for key in ("supersteps", "total_messages", "cross_edge_fraction",
                    "history", "compute_seconds", "exchange_seconds",
                    "overhead_seconds", "shard_stats"):
            assert key in result.extras, key
        assert result.extras["num_workers"] == 3
        assert result.simulated_seconds == pytest.approx(
            result.extras["compute_seconds"]
            + result.extras["exchange_seconds"]
            + result.extras["overhead_seconds"]
        )
        stats = result.extras["shard_stats"]
        assert stats["boundary_messages_bytes"] == (
            result.extras["total_messages"] * ClusterConfig().bytes_per_message
        )

    def test_shard_stats_only_for_sharded_input(self):
        graph = chung_lu_undirected(300, 1_200, seed=45)
        assert "shard_stats" not in distributed_pkmc(graph).extras
        directed = chung_lu_directed(300, 1_200, seed=46)
        assert "shard_stats" not in distributed_pwc(directed).extras

    def test_empty_graph_raises(self, tmp_path):
        graph = UndirectedGraph.from_edges(5, [])
        sharded = _sharded(graph, tmp_path, 2)
        with pytest.raises(EmptyGraphError):
            distributed_pkmc(sharded)


class TestShardedPwc:
    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_bit_identical_to_monolithic(self, tmp_path, shards):
        graph = chung_lu_directed(500, 2_500, seed=51)
        sharded = _sharded(graph, tmp_path, shards)
        mono = distributed_pwc(graph)
        shard = distributed_pwc(sharded)
        assert shard.density == mono.density
        assert shard.w_star == mono.w_star
        assert (shard.x, shard.y) == (mono.x, mono.y)
        assert np.array_equal(shard.s, mono.s)
        assert np.array_equal(shard.t, mono.t)
        assert shard.iterations == mono.iterations
        assert shard.extras["supersteps"] == mono.extras["supersteps"]
        assert shard.extras["size_wstar"] == mono.extras["size_wstar"]

    def test_without_dmax_prune_matches(self, tmp_path):
        graph = chung_lu_directed(300, 1_500, seed=52)
        sharded = _sharded(graph, tmp_path, 4)
        mono = distributed_pwc(graph, start_at_dmax=False)
        shard = distributed_pwc(sharded, start_at_dmax=False)
        assert shard.w_star == mono.w_star
        assert np.array_equal(shard.s, mono.s)
        assert np.array_equal(shard.t, mono.t)
        assert shard.extras["supersteps"] == mono.extras["supersteps"]

    def test_runs_under_memory_budget(self, tmp_path):
        graph = chung_lu_directed(500, 2_500, seed=53)
        unbudgeted = _sharded(graph, tmp_path, 6)
        sizes = [unbudgeted.shard(i).nbytes for i in range(6)]
        budget = sum(sorted(sizes)[-2:]) + 8
        sharded = _sharded(graph, tmp_path, 6, memory_budget_bytes=budget)
        shard = distributed_pwc(sharded)
        mono = distributed_pwc(graph)
        assert shard.w_star == mono.w_star
        assert np.array_equal(shard.s, mono.s)
        stats = shard.extras["shard_stats"]
        assert stats["peak_resident_bytes"] <= budget

    def test_empty_graph_raises(self, tmp_path):
        graph = DirectedGraph.from_edges(4, [])
        sharded = _sharded(graph, tmp_path, 2)
        with pytest.raises(EmptyGraphError):
            distributed_pwc(sharded)


class TestShardedPartition:
    """A ShardedGraph input puts each contiguous shard on its own worker."""

    def test_geometry_and_boundary_counts(self, tmp_path):
        graph = chung_lu_undirected(400, 1_600, seed=61)
        sharded = _sharded(graph, tmp_path, 4)
        owners = sharded.owners(np.arange(400))
        assert owners.shape == (400,)
        assert np.all(np.diff(owners) >= 0)  # contiguous ranges
        assert set(owners.tolist()) == {0, 1, 2, 3}
        counts = _shard_cross_counts(sharded)
        # Each vertex's cross-neighbor count is bounded by its degree...
        assert np.all(counts <= graph.degrees().astype(np.int64))
        # ...and matches the owners of its neighbours...
        heads = graph.heads()
        crossing = owners[heads] != owners[graph.indices]
        assert np.array_equal(
            counts, np.bincount(heads[crossing], minlength=400)
        )
        # ...and sums to the boundary-table total.
        total = sum(
            sharded.shard(i).boundary_src.size for i in range(4)
        )
        assert counts.sum() == total
        fraction = distributed_pkmc(sharded).extras["cross_edge_fraction"]
        assert fraction == sharded.cross_adjacency_fraction()
        assert 0.0 <= fraction <= 1.0
