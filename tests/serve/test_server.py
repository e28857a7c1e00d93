"""DsdServer behaviour: coalescing, batching, admission, caching, reports.

Everything here runs on tiny explicit graph tables (no registry loads)
and, where timing matters, a fake injectable clock — so the suite is
fast and fully deterministic under any backend.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import ExecutionContext, resolve_solver
from repro.engine import run as engine_run
from repro.errors import AlgorithmError, DatasetError, EngineError, ServeRejected
from repro.graph import chung_lu_undirected
from repro.serve import DsdServer, Query, TenantQuotas, build_query_mix


class FakeClock:
    """Monotonic clock advanced explicitly by the test."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def graphs():
    return {
        "alpha": chung_lu_undirected(200, 600, seed=21),
        "beta": chung_lu_undirected(250, 800, seed=22),
    }


def make_server(graphs, **kwargs):
    kwargs.setdefault("clock", FakeClock())
    return DsdServer(graphs=graphs, **kwargs)


def assert_bit_identical(result, expected):
    assert np.array_equal(result.vertices, expected.vertices)
    assert result.density == expected.density  # repro-lint: disable=R004 (bit-identity is the contract under test)
    assert result.iterations == expected.iterations


class TestSingleFlight:
    def test_n_identical_queries_one_solver_run(self, graphs):
        server = make_server(graphs)
        responses = server.serve([Query("alpha", "pkmc")] * 5)
        assert server.stats.solver_runs == 1
        assert server.stats.coalesced_queries == 4
        assert len(responses) == 5
        expected = engine_run("pkmc", graphs["alpha"], ExecutionContext())
        for response in responses:
            assert response.ok
            assert response.result.report.serve.coalesced == 5
            assert_bit_identical(response.result, expected)

    def test_followers_get_independent_clones(self, graphs):
        server = make_server(graphs)
        first, second = server.serve([Query("alpha", "pkmc")] * 2)
        assert first.result is not second.result
        second.result.vertices[0] = -1
        assert first.result.vertices[0] != -1

    def test_different_params_never_coalesce(self, graphs):
        server = make_server(graphs)
        server.serve(
            [
                Query("alpha", "greedypp", params={"num_rounds": 2}),
                Query("alpha", "greedypp", params={"num_rounds": 3}),
            ]
        )
        assert server.stats.solver_runs == 2
        assert server.stats.coalesced_queries == 0

    def test_different_tenants_same_work_coalesce(self, graphs):
        server = make_server(graphs)
        responses = server.serve(
            [Query("alpha", "pkmc", tenant="a"), Query("alpha", "pkmc", tenant="b")]
        )
        assert server.stats.solver_runs == 1
        assert all(r.result.report.serve.coalesced == 2 for r in responses)

    def test_uncacheable_params_get_unique_flight_keys(self, graphs):
        server = make_server(graphs)
        spec = resolve_solver("greedypp", graphs["alpha"])
        query = Query("alpha", "greedypp", params={"num_rounds": {"odd": 2}})
        first = server._flight_key(graphs["alpha"], spec, query, 0)
        second = server._flight_key(graphs["alpha"], spec, query, 1)
        assert first[0] == "__uncacheable__"
        assert first != second


class TestBatching:
    def test_flights_batched_per_graph(self, graphs):
        server = make_server(graphs)
        responses = server.serve(
            [
                Query("alpha", "pkmc"),
                Query("beta", "pkmc"),
                Query("alpha", "charikar"),
                Query("beta", "pkmc"),
            ]
        )
        assert server.stats.batches == 2
        alpha = [r for r in responses if r.query.dataset == "alpha"]
        beta = [r for r in responses if r.query.dataset == "beta"]
        # Batch size counts queries (not flights) sharing the graph.
        assert all(r.result.report.serve.batch_size == 2 for r in alpha)
        assert all(r.result.report.serve.batch_size == 2 for r in beta)

    def test_empty_drain_is_a_noop(self, graphs):
        server = make_server(graphs)
        assert server.drain() == []
        assert server.stats.batches == 0


class TestAdmissionControl:
    def test_queue_full_sheds_later_submissions(self, graphs):
        server = make_server(graphs, max_queue_depth=2)
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "charikar"))
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(Query("beta", "pkmc"))
        assert exc_info.value.reason == "queue_full"
        assert exc_info.value.retry_after_s == 0.0
        # FIFO shedding: the earlier submissions keep their slots.
        responses = server.drain()
        assert [r.query.solver for r in responses] == ["pkmc", "charikar"]
        assert server.stats.rejected_queue_full == 1
        assert server.stats.accepted == 2

    def test_queue_frees_after_drain(self, graphs):
        server = make_server(graphs, max_queue_depth=1)
        server.submit(Query("alpha", "pkmc"))
        server.drain()
        server.submit(Query("alpha", "pkmc"))  # must not raise
        assert server.queue_depth == 1

    def test_quota_exhaustion_has_retry_after(self, graphs):
        clock = FakeClock()
        server = make_server(
            graphs, clock=clock, quotas=TenantQuotas(rate=1.0, burst=2)
        )
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "pkmc"))
        with pytest.raises(ServeRejected) as exc_info:
            server.submit(Query("alpha", "pkmc"))
        assert exc_info.value.reason == "quota"
        assert exc_info.value.retry_after_s == pytest.approx(1.0)
        assert server.stats.rejected_quota == 1
        # The advertised retry-after is honest: admission succeeds then.
        clock.advance(1.0)
        server.submit(Query("alpha", "pkmc"))
        assert server.stats.accepted == 3

    def test_quotas_are_per_tenant(self, graphs):
        server = make_server(graphs, quotas=TenantQuotas(rate=1.0, burst=1))
        server.submit(Query("alpha", "pkmc", tenant="a"))
        with pytest.raises(ServeRejected):
            server.submit(Query("alpha", "pkmc", tenant="a"))
        server.submit(Query("alpha", "pkmc", tenant="b"))  # unaffected

    def test_shed_queries_never_spend_quota_tokens(self, graphs):
        server = make_server(
            graphs, max_queue_depth=1, quotas=TenantQuotas(rate=1.0, burst=1)
        )
        server.submit(Query("alpha", "pkmc"))
        # Queue is full: this rejection must not charge the bucket.
        with pytest.raises(ServeRejected, match="queue_full"):
            server.submit(Query("alpha", "pkmc"))
        server.drain()
        with pytest.raises(ServeRejected, match="quota"):
            server.submit(Query("alpha", "pkmc"))

    def test_peak_queue_depth_is_tracked(self, graphs):
        server = make_server(graphs, max_queue_depth=8)
        for _ in range(3):
            server.submit(Query("alpha", "pkmc"))
        server.drain()
        server.submit(Query("alpha", "pkmc"))
        assert server.stats.peak_queue_depth == 3

    def test_serve_turns_rejections_into_responses_in_order(self, graphs):
        server = make_server(graphs, max_queue_depth=2)
        queries = [Query("alpha", "pkmc")] * 4
        responses = server.serve(queries)
        assert [r.ok for r in responses] == [True, True, False, False]
        shed = responses[2]
        assert shed.status == "rejected"
        assert shed.reason == "queue_full"
        assert shed.retry_after_s == 0.0
        assert shed.result is None
        # A rejection has no report, so its serve statistics read 0.
        assert (shed.queue_wait_s, shed.batch_size, shed.coalesced) == (0, 0, 0)


class TestValidation:
    def test_unknown_dataset_is_a_dataset_error(self, graphs):
        server = make_server(graphs)
        with pytest.raises(DatasetError):
            server.submit(Query("no-such-graph", "pkmc"))

    def test_unknown_solver_is_an_algorithm_error(self, graphs):
        server = make_server(graphs)
        with pytest.raises(AlgorithmError):
            server.submit(Query("alpha", "definitely-not-a-solver"))

    def test_unknown_option_is_refused_at_submit(self, graphs):
        # One bad option name must not abort the drain that answers the
        # queries admitted around it.
        server = make_server(graphs)
        server.submit(Query("alpha", "pkmc"))
        with pytest.raises(EngineError, match="'bogus'"):
            server.submit(Query("alpha", "pkmc", params={"bogus": 1}))
        server.submit(Query("alpha", "charikar"))
        assert server.queue_depth == 2
        responses = server.drain()
        assert [r.query.solver for r in responses] == ["pkmc", "charikar"]
        assert all(r.ok for r in responses)
        assert server.stats.accepted == server.stats.completed == 2

    def test_registry_datasets_resolve_by_abbreviation(self):
        server = make_server(None)
        response, = server.serve([Query("PT", "charikar")])
        assert response.ok
        assert response.result.density > 0

    def test_invalid_construction(self, graphs):
        with pytest.raises(ValueError):
            DsdServer(graphs=graphs, num_workers=0)
        with pytest.raises(ValueError):
            DsdServer(graphs=graphs, max_queue_depth=0)


class TestReports:
    def test_serve_fields_on_report_and_response(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock)
        server.submit(Query("alpha", "pkmc"))
        server.submit(Query("alpha", "pkmc"))
        clock.advance(5.0)
        first, second = server.drain()
        for response in (first, second):
            serve = response.result.report.serve
            assert serve.queue_wait_s == pytest.approx(5.0)
            assert response.queue_wait_s == pytest.approx(5.0)
            assert serve.batch_size == 2 == response.batch_size
            assert serve.coalesced == 2 == response.coalesced
            assert response.latency_s == pytest.approx(5.0)

    def test_direct_engine_runs_have_zero_serve_fields(self, graphs):
        result = engine_run("pkmc", graphs["alpha"], ExecutionContext())
        assert result.report.serve is None

    def test_report_as_dict_round_trips_serve_fields(self, graphs):
        server = make_server(graphs)
        response, = server.serve([Query("alpha", "pkmc")])
        payload = response.result.report.as_dict()
        assert payload["serve"]["batch_size"] == 1
        assert payload["serve"]["coalesced"] == 1
        assert payload["serve"]["queue_wait_s"] >= 0.0
        assert json.loads(json.dumps(payload)) == payload

    def test_stripped_served_report_equals_direct_run(self, graphs):
        server = make_server(graphs, num_threads=4)
        response, = server.serve([Query("alpha", "pkmc")])
        report = response.result.report
        assert not report.cache_hit  # the first query misses
        direct = engine_run("pkmc", graphs["alpha"], ExecutionContext(num_threads=4))
        assert dataclasses.replace(report, serve=None) == direct.report


class TestCaching:
    def test_repeat_across_drains_hits_cache(self, graphs):
        server = make_server(graphs)
        first, = server.serve([Query("alpha", "pkmc")])
        second, = server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 1
        assert server.stats.cache_hits == 1
        assert second.result.report.cache_hit
        assert_bit_identical(second.result, first.result)

    def test_ttl_expiry_forces_recompute(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock, cache_ttl=10.0)
        server.serve([Query("alpha", "pkmc")])
        clock.advance(11.0)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 2
        assert server.cache_stats()["expired"] == 1

    def test_within_ttl_still_served_from_cache(self, graphs):
        clock = FakeClock()
        server = make_server(graphs, clock=clock, cache_ttl=10.0)
        server.serve([Query("alpha", "pkmc")])
        clock.advance(9.0)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 1
        assert server.stats.cache_hits == 1

    def test_cache_disabled_reruns_but_still_coalesces(self, graphs):
        server = make_server(graphs, cache_entries=0)
        server.serve([Query("alpha", "pkmc")] * 2)
        server.serve([Query("alpha", "pkmc")])
        assert server.stats.solver_runs == 2  # one per drain
        assert server.stats.coalesced_queries == 1
        assert server.cache_stats() == {
            "hits": 0, "misses": 0, "expired": 0, "entries": 0,
        }


class TestReplayEquivalence:
    def test_served_mix_is_bit_identical_to_direct_runs(self, graphs):
        solvers = ["pkmc", "charikar"]
        queries = build_query_mix(
            "hot-graph", list(graphs), solvers, 30, seed=5, tenants=("a", "b")
        )
        server = make_server(graphs, max_queue_depth=64)
        reference = {
            (dataset, solver): engine_run(
                solver, graphs[dataset], ExecutionContext()
            )
            for dataset in graphs
            for solver in solvers
        }
        for offset in range(0, len(queries), 10):
            for response in server.serve(queries[offset:offset + 10]):
                assert response.ok
                expected = reference[
                    response.query.dataset, response.query.solver
                ]
                assert_bit_identical(response.result, expected)
        stats = server.stats
        assert stats.completed == 30
        assert stats.solver_runs + stats.cache_hits + stats.coalesced_queries == 30


class TestLifecycle:
    def test_close_drops_queue_and_graphs(self, graphs):
        server = make_server(dict(graphs))
        server.submit(Query("alpha", "pkmc"))
        server.close()
        assert server.queue_depth == 0
        assert server.drain() == []
        # Still usable afterwards (registry datasets re-resolve).
        response, = server.serve([Query("PT", "charikar")])
        assert response.ok


class TestFailurePairing:
    """A bad or raising query never shifts or drops another's answer."""

    def test_bad_query_mid_burst_queues_nothing(self, graphs):
        server = make_server(graphs)
        with pytest.raises(AlgorithmError):
            server.serve([Query("alpha", "pkmc"), Query("alpha", "nope")])
        assert server.queue_depth == 0
        response, = server.serve([Query("alpha", "charikar")])
        assert response.query.solver == "charikar"
        expected = engine_run("charikar", graphs["alpha"], ExecutionContext())
        assert_bit_identical(response.result, expected)

    def test_serve_refuses_a_queue_left_by_submit(self, graphs):
        server = make_server(graphs)
        server.submit(Query("alpha", "pkmc"))
        with pytest.raises(EngineError, match=r"drain\(\)"):
            server.serve([Query("alpha", "charikar")])
        response, = server.drain()
        assert response.query.solver == "pkmc"
        assert response.ok

    def test_raising_flight_fails_alone(self, graphs):
        server = make_server(graphs)
        server.submit(Query("alpha", "pkmc"))
        bad = Query("alpha", "pbu", params={"epsilon": "abc"})
        server.submit(bad)
        server.submit(bad)  # a follower of the failing flight
        server.submit(Query("alpha", "charikar"))
        responses = server.drain()
        assert [r.status for r in responses] == ["ok", "failed", "failed", "ok"]
        assert [r.query.solver for r in responses] == [
            "pkmc", "pbu", "pbu", "charikar"]
        assert responses[1].reason.startswith("TypeError: ")
        assert responses[1].result is None
        for response in (responses[0], responses[3]):
            expected = engine_run(
                response.query.solver, graphs["alpha"], ExecutionContext()
            )
            assert_bit_identical(response.result, expected)
        stats = server.stats
        assert (stats.accepted, stats.completed, stats.failed) == (4, 2, 2)
        assert stats.completed == (
            stats.solver_runs + stats.cache_hits + stats.coalesced_queries
        )
        assert server.queue_depth == 0
