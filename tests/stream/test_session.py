"""StreamSession: gating, reports, cache lineage, delta log, equivalence.

The session contract under test: mutations are validated atomically and
logged as a replayable delta; queries answer from the maintained k*-core
with a stamped streaming report; a mutation retires exactly the cached
fingerprints this session's graph has occupied; and both refresh modes
(incremental / rebuild) answer bit-identically over any stream.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import sliding_window_stream
from repro.errors import EngineError, StreamMutationError
from repro.graph import UndirectedGraph, chung_lu_undirected, gnm_random_undirected
from repro.store.memo import ResultCache
from repro.store.snapshot import load_delta, replay_delta
from repro.stream import StreamSession

EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 3), (4, 5)]


@pytest.fixture
def graph():
    return UndirectedGraph.from_edges(6, EDGES)


@pytest.fixture
def medium():
    return chung_lu_undirected(150, 500, seed=5)


class TestGating:
    def test_unknown_mode_is_rejected(self):
        with pytest.raises(EngineError, match="unknown streaming mode"):
            StreamSession(10, mode="lazy")

    def test_non_streaming_solver_is_rejected(self):
        # 'exact' is registered but its flow answer has no maintained form.
        with pytest.raises(EngineError, match="supports_streaming"):
            StreamSession(10, solver="exact")

    def test_modes_and_default_solver_construct(self):
        for mode in ("incremental", "rebuild"):
            session = StreamSession(10, mode=mode)
            assert session.mode == mode
            assert session.num_vertices == 10
            assert session.num_edges == 0


class TestApply:
    def test_counts_only_effective_mutations(self, graph):
        session = StreamSession.from_graph(graph)
        outcome = session.apply(
            insertions=[(0, 1), (0, 5), (0, 5)],  # dup of existing + dup in batch
            deletions=[(0, 5), (2, 5)],  # present, absent
        )
        assert outcome["inserted"] == 1
        assert outcome["deleted"] == 1
        # the log records only what actually changed, in order
        assert session.delta_log == ((+1, 0, 5), (-1, 0, 5))
        assert session.num_edges == graph.num_edges

    def test_invalid_batch_leaves_session_untouched(self, graph):
        session = StreamSession.from_graph(graph)
        before = session.num_edges
        with pytest.raises(StreamMutationError):
            session.apply(insertions=[(0, 4), (3, 3)])  # self-loop poisons batch
        with pytest.raises(StreamMutationError):
            session.apply(deletions=[(0, 1), (0, 99)])  # out-of-range id
        assert session.num_edges == before
        assert session.delta_log == ()

    def test_insertions_land_before_deletions(self, graph):
        session = StreamSession.from_graph(graph)
        outcome = session.apply(insertions=[(0, 4)], deletions=[(0, 4)])
        assert outcome == {"inserted": 1, "deleted": 1, "invalidated": 0}
        assert session.num_edges == graph.num_edges


class TestQueryReports:
    def test_report_carries_streaming_fields(self, medium):
        session = StreamSession.from_graph(medium)
        session.apply(insertions=[(0, 1)] if not medium.has_edge(0, 1) else [],
                      deletions=[(0, 1)] if medium.has_edge(0, 1) else [])
        result = session.query()
        report = result.report
        assert report is not None
        stats = session.stats()
        assert report.stream.updates_applied == stats["updates_applied"]
        assert report.stream.affected_vertices == stats["affected_total"]
        assert report.stream.rebuilds == stats["rebuilds"]
        assert report.stream.incremental_fraction == stats["incremental_fraction"]
        assert 0.0 <= report.stream.incremental_fraction <= 1.0
        assert report.cache_hit is False
        assert report.shard is None and report.serve is None
        payload = report.as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_rebuild_mode_reports_zero_incremental_fraction(self, medium):
        session = StreamSession.from_graph(medium, mode="rebuild")
        session.k_star()
        result = session.query()
        assert result.report.stream.incremental_fraction == 0.0
        assert result.report.stream.rebuilds >= 1
        assert session.stats()["incremental_refreshes"] == 0

    def test_incremental_mode_uses_localized_refreshes(self, medium):
        session = StreamSession.from_graph(medium)
        session.k_star()  # the bulk load converges (rebuild is fine here)
        for u in range(5):
            edge = (u, u + 20)
            if medium.has_edge(*edge):
                session.apply(deletions=[edge])
            else:
                session.apply(insertions=[edge])
            session.k_star()
        stats = session.stats()
        assert stats["incremental_refreshes"] >= 5
        assert 0.0 < stats["incremental_fraction"] <= 1.0

    def test_query_matches_static_solver_surface(self, graph):
        session = StreamSession.from_graph(graph)
        result = session.query()
        assert result.k_star == session.k_star()
        assert result.density > 0


class TestCacheLineage:
    def test_repeat_query_hits_cache(self, graph):
        cache = ResultCache()
        session = StreamSession.from_graph(graph, cache=cache)
        first = session.query()
        second = session.query()
        assert first.report.cache_hit is False
        assert second.report.cache_hit is True
        assert np.array_equal(first.vertices, second.vertices)
        assert second.density == first.density

    def test_mutation_retires_exactly_the_session_lineage(self, graph):
        cache = ResultCache()
        other = StreamSession.from_graph(
            UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)]),
            cache=cache,
        )
        other.query()  # a different graph's entry in the shared cache
        session = StreamSession.from_graph(graph, cache=cache)
        session.query()
        assert session.stats()["lineage_depth"] == 1

        outcome = session.apply(insertions=[(0, 4)])
        assert outcome["invalidated"] == 1
        assert cache.invalidated == 1
        assert session.stats()["lineage_depth"] == 0
        assert other.query().report.cache_hit is True  # foreign entry survives
        assert session.query().report.cache_hit is False

    def test_noop_batch_does_not_invalidate(self, graph):
        cache = ResultCache()
        session = StreamSession.from_graph(graph, cache=cache)
        session.query()
        outcome = session.apply(insertions=[(0, 1)], deletions=[(2, 5)])
        assert outcome == {"inserted": 0, "deleted": 0, "invalidated": 0}
        assert session.query().report.cache_hit is True

    def test_restored_graph_recovers_its_fingerprint(self, graph):
        # Mutate then restore: the content fingerprint returns to its
        # original value, so the restored state re-occupies the same key.
        cache = ResultCache()
        session = StreamSession.from_graph(graph, cache=cache)
        original = session.graph().fingerprint()
        session.query()
        session.apply(insertions=[(0, 4)])
        assert session.graph().fingerprint() != original
        session.apply(deletions=[(0, 4)])
        assert session.graph().fingerprint() == original
        # the lineage entry was retired, so this repopulates, then re-hits
        assert session.query().report.cache_hit is False
        assert session.query().report.cache_hit is True


class TestDeltaLog:
    def test_save_delta_requires_a_base(self):
        session = StreamSession(6)
        session.apply(insertions=EDGES)
        with pytest.raises(EngineError, match="base graph"):
            session.save_delta("unused.npz")

    def test_delta_round_trips_bit_identically(self, graph, tmp_path):
        session = StreamSession.from_graph(graph)
        session.apply(insertions=[(0, 4), (2, 4)], deletions=[(1, 3)])
        session.apply(deletions=[(2, 4)])
        path = tmp_path / "session.delta.npz"
        assert session.save_delta(path) == 4

        base_fp, ops, edges = load_delta(path)
        assert base_fp == graph.fingerprint()
        assert ops.tolist() == [1, 1, -1, -1]
        replayed = replay_delta(graph, path)
        live = session.graph()
        assert np.array_equal(replayed.indptr, live.indptr)
        assert np.array_equal(replayed.indices, live.indices)
        assert replayed.indptr.dtype == live.indptr.dtype
        assert replayed.indices.dtype == live.indices.dtype
        assert replayed.fingerprint() == live.fingerprint()

    def test_seed_edges_stay_out_of_the_log(self, graph):
        session = StreamSession.from_graph(graph)
        assert session.delta_log == ()
        assert session.stats()["delta_ops"] == 0


class TestSeeding:
    """``from_graph`` seeds in one step, as if the edges were applied."""

    @pytest.mark.parametrize("mode", ["incremental", "rebuild"])
    @pytest.mark.parametrize("make_graph", [
        # Past the region budget: the first refresh is one rebuild.
        lambda: chung_lu_undirected(150, 500, seed=5),
        # Within it: the first refresh replays the edges one by one.
        lambda: gnm_random_undirected(400, 90, seed=6),
    ])
    def test_from_graph_matches_applied_edges(self, make_graph, mode):
        graph = make_graph()
        seeded = StreamSession.from_graph(graph, mode=mode, cache=ResultCache())
        fed = StreamSession(graph.num_vertices, mode=mode, cache=ResultCache())
        fed.apply(insertions=graph.edges())
        first = seeded.query().report
        assert first == fed.query().report
        assert first.stream.updates_applied == graph.num_edges
        assert seeded.graph().fingerprint() == fed.graph().fingerprint()
        assert seeded.graph().fingerprint() == graph.fingerprint()
        assert np.array_equal(seeded.core_numbers(), fed.core_numbers())
        left, right = seeded.stats(), fed.stats()
        assert (left.pop("delta_ops"), right.pop("delta_ops")) == (0, graph.num_edges)
        assert left == right


class TestModeEquivalence:
    """Incremental maintenance must be indistinguishable from rebuild."""

    def test_lockstep_over_a_sliding_window_stream(self, medium):
        initial, batches = sliding_window_stream(
            medium, window_fraction=0.7, batch_size=6, num_batches=12, seed=3
        )
        inc = StreamSession(medium.num_vertices, mode="incremental")
        reb = StreamSession(medium.num_vertices, mode="rebuild")
        inc.apply(insertions=initial)
        reb.apply(insertions=initial)
        for batch in batches:
            inc.apply(insertions=batch.insertions, deletions=batch.deletions)
            reb.apply(insertions=batch.insertions, deletions=batch.deletions)
            assert inc.k_star() == reb.k_star()
            assert np.array_equal(inc.core_numbers(), reb.core_numbers())
        left, right = inc.query(), reb.query()
        assert np.array_equal(left.vertices, right.vertices)
        assert left.density == right.density

    @given(seed=st.integers(0, 1_000), batch_size=st.integers(1, 9))
    @settings(max_examples=15, deadline=None)
    def test_fuzzed_streams_agree(self, seed, batch_size):
        graph = chung_lu_undirected(80, 260, seed=11)
        initial, batches = sliding_window_stream(
            graph, window_fraction=0.6, batch_size=batch_size,
            num_batches=min(6, (graph.num_edges * 2 // 5) // batch_size),
            seed=seed,
        )
        inc = StreamSession(graph.num_vertices, mode="incremental")
        reb = StreamSession(graph.num_vertices, mode="rebuild")
        inc.apply(insertions=initial)
        reb.apply(insertions=initial)
        for batch in batches:
            inc.apply(insertions=batch.insertions, deletions=batch.deletions)
            reb.apply(insertions=batch.insertions, deletions=batch.deletions)
            assert inc.k_star() == reb.k_star()
            assert np.array_equal(inc.core_numbers(), reb.core_numbers())
