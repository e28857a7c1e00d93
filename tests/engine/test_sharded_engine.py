"""Engine over ShardedGraph: dispatch, memo-key identity, RunReport."""

import json

import numpy as np
import pytest

from repro.engine import ExecutionContext
from repro.engine import run as engine_run
from repro.engine.runner import resolve_solver
from repro.engine.spec import get_solver
from repro.graph.generators import chung_lu_directed, chung_lu_undirected
from repro.store.memo import ResultCache, make_cache_key
from repro.store.shard import load_sharded, save_sharded


@pytest.fixture
def undirected_pair(tmp_path):
    graph = chung_lu_undirected(500, 2_500, seed=71)
    save_sharded(graph, tmp_path, shards=4)
    return graph, load_sharded(tmp_path)


@pytest.fixture
def directed_pair(tmp_path):
    graph = chung_lu_directed(400, 2_000, seed=72)
    save_sharded(graph, tmp_path, shards=4)
    return graph, load_sharded(tmp_path)


class TestDispatch:
    def test_kind_resolved_from_sharded_graph(self, undirected_pair, directed_pair):
        _, sharded_u = undirected_pair
        _, sharded_d = directed_pair
        assert resolve_solver("pkmc-bsp", sharded_u).kind == "uds"
        assert resolve_solver("pwc-bsp", sharded_d).kind == "dds"

    def test_bsp_specs_declare_shard_support(self):
        assert get_solver("uds", "pkmc-bsp").supports_shards
        assert get_solver("dds", "pwc-bsp").supports_shards
        # ...and capability_flags stays the locked 4-key contract set.
        flags = get_solver("uds", "pkmc-bsp").capability_flags()
        assert "supports_shards" not in flags and len(flags) == 4

    def test_engine_parity_pkmc(self, undirected_pair):
        graph, sharded = undirected_pair
        mono = engine_run("pkmc-bsp", graph, ExecutionContext())
        shard = engine_run("pkmc-bsp", sharded, ExecutionContext())
        assert shard.k_star == mono.k_star
        assert np.array_equal(shard.vertices, mono.vertices)

    def test_engine_parity_pwc(self, directed_pair):
        graph, sharded = directed_pair
        mono = engine_run("pwc-bsp", graph, ExecutionContext())
        shard = engine_run("pwc-bsp", sharded, ExecutionContext())
        assert shard.w_star == mono.w_star
        assert np.array_equal(shard.s, mono.s)
        assert np.array_equal(shard.t, mono.t)

    def test_shard_unaware_solver_materializes(self, undirected_pair):
        graph, sharded = undirected_pair
        spec = get_solver("uds", "pkmc")
        assert not spec.supports_shards
        mono = engine_run("pkmc", graph, ExecutionContext())
        shard = engine_run("pkmc", sharded, ExecutionContext())
        assert shard.k_star == mono.k_star
        assert np.array_equal(shard.vertices, mono.vertices)


class TestMemoKeyIdentity:
    """Acceptance pin: sharded and monolithic runs share cache entries."""

    def test_cache_keys_are_identical(self, undirected_pair):
        graph, sharded = undirected_pair
        spec = get_solver("uds", "pkmc-bsp")
        ctx = ExecutionContext()
        key_mono = make_cache_key(
            graph.fingerprint(), spec.kind, spec.name, ctx, {},
            backend="numpy",
        )
        key_shard = make_cache_key(
            sharded.fingerprint(), spec.kind, spec.name, ctx, {},
            backend="numpy",
        )
        assert key_mono == key_shard

    def test_sharded_run_hits_monolithic_entry(self, undirected_pair):
        graph, sharded = undirected_pair
        cache = ResultCache()
        first = engine_run("pkmc-bsp", graph, ExecutionContext(cache=cache))
        assert not first.report.cache_hit
        second = engine_run("pkmc-bsp", sharded, ExecutionContext(cache=cache))
        assert second.report.cache_hit
        assert second.k_star == first.k_star

    def test_monolithic_run_hits_sharded_entry(self, directed_pair):
        graph, sharded = directed_pair
        cache = ResultCache()
        first = engine_run("pwc-bsp", sharded, ExecutionContext(cache=cache))
        assert not first.report.cache_hit
        second = engine_run("pwc-bsp", graph, ExecutionContext(cache=cache))
        assert second.report.cache_hit
        assert second.w_star == first.w_star


class TestRunReportBreakdown:
    def test_sharded_run_populates_shard_fields(self, undirected_pair):
        _, sharded = undirected_pair
        result = engine_run("pkmc-bsp", sharded, ExecutionContext())
        shard = result.report.shard
        assert shard.shards == 4
        assert shard.shard_loads >= 4
        assert shard.peak_resident_bytes > 0
        assert shard.boundary_messages_bytes > 0

    def test_monolithic_run_stays_zero(self, undirected_pair):
        graph, _ = undirected_pair
        report = engine_run("pkmc-bsp", graph, ExecutionContext()).report
        assert report.shard is None

    def test_as_dict_carries_the_breakdown(self, undirected_pair):
        _, sharded = undirected_pair
        report = engine_run("pkmc-bsp", sharded, ExecutionContext()).report
        payload = report.as_dict()
        for key in ("shards", "shard_loads", "peak_resident_bytes",
                    "boundary_messages_bytes"):
            assert key in payload["shard"], key
        assert payload["shard"]["shards"] == 4
        assert json.loads(json.dumps(payload)) == payload

    def test_materialized_run_reports_facade_stats(self, undirected_pair):
        # A shard-unaware solver still reports the facade's residency
        # (the to_graph() assembly pages through _load_members, not
        # shard(), so loads may be zero — but the shard count survives).
        _, sharded = undirected_pair
        report = engine_run("pkmc", sharded, ExecutionContext()).report
        assert report.shard.shards == 4

    def test_materialized_run_reports_only_its_own_counters(self, tmp_path):
        # The facade's counters are cumulative; a BSP run before a
        # shard-unaware one must not leak its loads into the latter's
        # report.
        save_sharded(chung_lu_undirected(400, 1600, seed=3), tmp_path, shards=4)
        sharded = load_sharded(tmp_path)
        bsp = engine_run("pkmc-bsp", sharded, ExecutionContext()).report
        assert bsp.shard.shard_loads == 4
        shard = engine_run("pkmc", sharded, ExecutionContext()).report.shard
        assert shard.shards == 4
        assert shard.shard_loads == 0
        assert shard.boundary_messages_bytes == 0
        # Nothing was loaded: the peak is what the BSP run left resident.
        assert shard.peak_resident_bytes == sharded.memory_bytes()

    def test_materialized_run_reports_the_assembled_graph_memory(self, tmp_path):
        # The facade's memory_bytes() counts resident shards only, and the
        # to_graph() assembly loads none through the counted path, so a
        # materialized run must report the CSR it actually ran on — here
        # 4x the budget, which does not apply to materialization.
        graph = chung_lu_undirected(4000, 40000, seed=3)
        save_sharded(graph, tmp_path, shards=8)
        sharded = load_sharded(tmp_path, memory_budget_bytes=84_001)
        report = engine_run("pkmc", sharded, ExecutionContext()).report
        mono = engine_run("pkmc", sharded.to_graph(), ExecutionContext()).report
        assert report.graph_memory_bytes == mono.graph_memory_bytes
        assert report.graph_memory_bytes >= graph.memory_bytes(
            include_scratch=False
        ) > 84_001
        assert report.shard.shards == 8
        assert report.shard.shard_loads == 0

    def test_shard_aware_run_reports_resident_shards(self, undirected_pair):
        _, sharded = undirected_pair
        report = engine_run("pkmc-bsp", sharded, ExecutionContext()).report
        assert report.graph_memory_bytes == sharded.memory_bytes()
