"""RunReport: engine-attached reports match direct solver calls.

The refactor's report contract: ``engine.run`` produces the same
RunReport a caller would build from a direct solver call with the same
SimRuntime — on both a heavy-tailed Chung–Lu background and a planted
clique — and every registered solver populates ``result.report``.
"""

import pytest

from repro.core.pkmc import pkmc
from repro.core.pwc import pwc
from repro.engine import ExecutionContext, RunReport, get_solver, run
from repro.engine.spec import solver_specs
from repro.errors import EmptyGraphError
from repro.graph import (
    UndirectedGraph,
    chung_lu_directed,
    chung_lu_undirected,
)
from repro.runtime.simruntime import SimRuntime

THREADS = 8


@pytest.fixture(scope="module")
def chung_lu_uds():
    return chung_lu_undirected(300, 1200, seed=11)


@pytest.fixture(scope="module")
def chung_lu_dds():
    return chung_lu_directed(300, 1200, seed=12)


@pytest.fixture(scope="module")
def clique_graph():
    # K8: density (n-1)/2 = 3.5, one h-index sweep family fixture.
    n = 8
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return UndirectedGraph.from_edges(n, edges)


class TestEngineMatchesDirectCalls:
    @pytest.mark.parametrize("fixture", ["chung_lu_uds", "clique_graph"])
    def test_pkmc_report_equals_direct_call(self, fixture, request):
        graph = request.getfixturevalue(fixture)
        engine_result = run(
            "pkmc", graph, ExecutionContext(num_threads=THREADS)
        )

        runtime = SimRuntime(num_threads=THREADS)
        direct_result = pkmc(graph, runtime=runtime)
        direct_report = RunReport.from_run(
            get_solver("uds", "pkmc"), direct_result, runtime, graph=graph
        )

        assert engine_result.report == direct_report
        assert engine_result.density == direct_result.density
        assert engine_result.report.simulated_seconds == runtime.now

    def test_pwc_report_equals_direct_call(self, chung_lu_dds):
        engine_result = run(
            "pwc", chung_lu_dds, ExecutionContext(num_threads=THREADS)
        )

        runtime = SimRuntime(num_threads=THREADS)
        direct_result = pwc(chung_lu_dds, runtime=runtime)
        direct_report = RunReport.from_run(
            get_solver("dds", "pwc"), direct_result, runtime,
            graph=chung_lu_dds,
        )

        assert engine_result.report == direct_report

    def test_report_fields_describe_the_run(self, clique_graph):
        result = run("pkmc", clique_graph, ExecutionContext(num_threads=4))
        report = result.report
        assert report.solver == "pkmc" and report.kind == "uds"
        assert report.guarantee == "2-approx" and report.cost == "parallel"
        assert report.density == result.density == pytest.approx(3.5)
        assert report.iterations == result.iterations
        assert report.num_threads == 4
        assert report.parallel_loops > 0
        assert report.peak_frontier >= clique_graph.num_vertices
        assert report.simulated_seconds > 0.0
        assert set(report.breakdown) >= {"work", "serial", "total"}

    def test_graph_memory_includes_scratch_buffers(self):
        graph = chung_lu_undirected(120, 480, seed=3)
        report = run("pkmc", graph, ExecutionContext(num_threads=4)).report
        # Solvers touch degrees()/heads() and friends, so the report's
        # graph footprint is the structural size plus the scratch the run
        # actually materialised — exactly graph.memory_bytes() afterwards.
        assert report.graph_memory_bytes == graph.memory_bytes()
        assert report.graph_memory_bytes > graph.memory_bytes(
            include_scratch=False
        )

    def test_as_dict_roundtrips_every_field(self, clique_graph):
        report = run("pkmc", clique_graph).report
        payload = report.as_dict()
        assert payload == RunReport(**payload).as_dict()
        assert payload["solver"] == "pkmc"


class TestEverySolverPopulatesReport:
    @pytest.mark.parametrize(
        "spec",
        [s for s in solver_specs() if not s.supports_cluster],
        ids=lambda s: f"{s.kind}:{s.name}",
    )
    def test_report_attached(self, spec, triangle_graph, fig3_graph):
        graph = triangle_graph if spec.kind == "uds" else fig3_graph
        result = run(spec, graph)
        assert isinstance(result.report, RunReport)
        assert result.report.solver == spec.name
        assert result.report.kind == spec.kind
        assert result.report.density == result.density
        # A plain run went through no shard, serve or stream layer.
        assert result.report.shard is None
        assert result.report.serve is None
        assert result.report.stream is None

    @pytest.mark.parametrize(
        "spec",
        [s for s in solver_specs() if s.supports_cluster],
        ids=lambda s: f"{s.kind}:{s.name}",
    )
    def test_bsp_ports_attach_reports_too(self, spec, triangle_graph,
                                          fig3_graph):
        graph = triangle_graph if spec.kind == "uds" else fig3_graph
        result = run(spec, graph)
        assert isinstance(result.report, RunReport)
        # BSP ports run on the simulated cluster, not a SimRuntime.
        assert result.report.cost == "bsp"
        assert result.report.simulated_seconds == result.simulated_seconds
        # An in-memory graph: no shard record, and no serve or stream one.
        assert result.report.shard is None
        assert result.report.serve is None
        assert result.report.stream is None

    def test_empty_graph_error_propagates_unchanged(self):
        empty = UndirectedGraph.from_edges(0, [])
        with pytest.raises(EmptyGraphError):
            run("pkmc", empty)
