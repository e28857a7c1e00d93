"""engine.run: capability-gated context propagation and contracts.

A throwaway registered solver records exactly which kwargs the engine
forwarded, so these tests pin the dispatch contract: each context field
reaches a solver iff the spec claims the capability, and a
``supports_runtime`` solver that ignores its runtime is an error.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.engine import ExecutionContext, resolve_solver, run
from repro.engine.spec import temporary_solver
from repro.errors import EngineError
from repro.runtime.simruntime import SimRuntime


@dataclass
class FakeResult:
    """Minimal result shape the engine needs (density/iterations/report)."""

    density: float = 1.0
    iterations: int = 1
    simulated_seconds: float = 0.0
    report: object = None
    seen: dict = field(default_factory=dict)


def recording_solver(charge=True):
    """A solver body that records its kwargs and optionally charges work."""

    def solve(graph, runtime=None, **kwargs):
        if runtime is not None and charge:
            runtime.parfor(np.ones(4))
        return FakeResult(seen={"runtime": runtime, **kwargs})

    return solve


def temp(name="probe", kind="uds", **caps):
    return temporary_solver(name=name, kind=kind, guarantee="heuristic",
                            cost="serial", **caps)


class TestContextPropagation:
    def test_seed_reaches_seed_capable_solver(self, triangle_graph):
        with temp(supports_seed=True)(recording_solver()) as spec:
            result = run(spec, triangle_graph, ExecutionContext(seed=7))
        assert result.seen["seed"] == 7

    def test_seed_withheld_without_capability(self, triangle_graph):
        with temp()(recording_solver()) as spec:
            result = run(spec, triangle_graph, ExecutionContext(seed=7))
        assert "seed" not in result.seen

    def test_runtime_built_from_context_threads(self, triangle_graph):
        ctx = ExecutionContext(num_threads=16)
        with temp(supports_runtime=True)(recording_solver()) as spec:
            result = run(spec, triangle_graph, ctx)
        assert result.seen["runtime"] is ctx.runtime
        assert ctx.runtime.num_threads == 16
        assert ctx.simulated_seconds > 0.0

    def test_runtime_withheld_without_capability(self, triangle_graph):
        ctx = ExecutionContext(num_threads=16)
        with temp()(recording_solver()) as spec:
            result = run(spec, triangle_graph, ctx)
        assert result.seen["runtime"] is None
        assert ctx.runtime is None  # serial solvers never pay for one

    def test_explicit_runtime_option_adopted(self, triangle_graph):
        rt = SimRuntime(num_threads=4)
        ctx = ExecutionContext(num_threads=1)
        with temp(supports_runtime=True)(recording_solver()) as spec:
            result = run(spec, triangle_graph, ctx, runtime=rt)
        assert result.seen["runtime"] is rt
        assert ctx.runtime is rt

    def test_explicit_runtime_dropped_for_serial_solver(self, triangle_graph):
        # Old api.py contract: serial solvers accept-and-ignore a runtime.
        with temp()(recording_solver()) as spec:
            result = run(spec, triangle_graph, runtime=SimRuntime())
        assert result.seen["runtime"] is None

    def test_default_options_overridden_by_call_options(self, triangle_graph):
        with temporary_solver(
            name="probe", kind="uds", guarantee="heuristic", cost="serial",
            default_options={"epsilon": 0.5, "passes": 2},
        )(recording_solver()) as spec:
            result = run(spec, triangle_graph, epsilon=0.25)
        assert result.seen["epsilon"] == 0.25
        assert result.seen["passes"] == 2

    def test_sanitize_flag_reaches_built_runtime(self, triangle_graph):
        ctx = ExecutionContext(sanitize=True)
        with temp(supports_runtime=True)(recording_solver()) as spec:
            run(spec, triangle_graph, ctx)
        assert ctx.runtime.sanitize

    def test_sanitize_forwarded_as_kwarg_without_runtime(self, triangle_graph):
        # Solvers that build their own runtime internally (the BSP
        # cluster ports) declare supports_sanitize without
        # supports_runtime; the engine must pass the flag as a kwarg.
        with temp(supports_sanitize=True)(recording_solver()) as spec:
            on = run(spec, triangle_graph, ExecutionContext(sanitize=True))
            off = run(spec, triangle_graph, ExecutionContext())
        assert on.seen["sanitize"] is True
        assert "sanitize" not in off.seen  # default-off stays implicit


class TestPkmcBspSanitize:
    """Satellite pin: pkmc-bsp honors ExecutionContext(sanitize=True).

    PR 6's contracts manifest flagged pkmc-bsp as declaring sanitize it
    never received — the engine only forwarded the flag through a built
    runtime, which cluster ports do not take.  Now the flag reaches the
    solver as a kwarg and drives a local sanitizing SimRuntime, without
    perturbing the cluster clock or the results.
    """

    def test_sanitized_run_matches_unsanitized(self, triangle_graph):
        from repro.graph import chung_lu_undirected

        graph = chung_lu_undirected(500, 2_000, seed=17)
        ctx_plain = ExecutionContext()
        ctx_clean = ExecutionContext(sanitize=True)
        plain = run("pkmc-bsp", graph, ctx_plain)
        clean = run("pkmc-bsp", graph, ctx_clean)
        assert np.array_equal(plain.vertices, clean.vertices)
        assert plain.density == clean.density
        assert plain.iterations == clean.iterations
        # Sanitizing replays sweeps on a local runtime; the simulated
        # cluster clock must not move.
        assert plain.simulated_seconds == clean.simulated_seconds

    def test_declared_capability_matches_inferred(self):
        # The regression PR 6 reported: declared != inferred for
        # pkmc-bsp.  Keep the record mismatch-free.
        from pathlib import Path

        from repro.analysis.engine import LintEngine

        src_root = Path(__file__).resolve().parents[2] / "src" / "repro"
        project = LintEngine().build_project([src_root])
        entry = next(
            rec for rec in project.contracts_manifest()
            if rec["name"] == "pkmc-bsp"
        )
        assert entry["declared"]["sanitize"] is True
        assert entry["inferred"]["sanitize"] is True
        assert entry["mismatches"] == []


class TestOptionNames:
    def test_unknown_option_is_an_engine_error(self, triangle_graph):
        with pytest.raises(EngineError, match="'bogus'.*sweep"):
            run("pkmc", triangle_graph, bogus=1)

    def test_names_come_from_the_signature(self, triangle_graph):
        def solve(graph, alpha=1):
            return FakeResult(seen={"alpha": alpha})

        with temp()(solve) as spec:
            assert run(spec, triangle_graph, alpha=2).seen == {"alpha": 2}
            # A runtime option stays accepted, and is dropped for a
            # solver without the runtime capability.
            assert run(spec, triangle_graph, runtime=SimRuntime()).seen == {"alpha": 1}
            expected = "has no option 'beta'; it accepts alpha, runtime"
            with pytest.raises(EngineError, match=expected):
                run(spec, triangle_graph, beta=2)

    def test_var_keyword_solver_accepts_any_name(self, triangle_graph):
        with temp()(recording_solver()) as spec:
            assert spec.option_names is None
            assert run(spec, triangle_graph, beta=2).seen["beta"] == 2


class TestRuntimeContract:
    def test_uncharged_runtime_is_an_engine_error(self, triangle_graph):
        with temp(supports_runtime=True)(recording_solver(charge=False)) as spec:
            with pytest.raises(EngineError, match="charged nothing"):
                run(spec, triangle_graph)

    def test_serial_charge_satisfies_contract(self, triangle_graph):
        def solve(graph, runtime=None):
            runtime.charge_serial(10.0)
            return FakeResult()

        with temp(supports_runtime=True)(solve) as spec:
            result = run(spec, triangle_graph)
        assert result.report.simulated_seconds > 0.0


class TestResolveSolver:
    def test_kind_inferred_from_graph_type(self, triangle_graph, fig3_graph):
        assert resolve_solver("pfw", triangle_graph).kind == "uds"
        assert resolve_solver("pfw", fig3_graph).kind == "dds"

    def test_spec_passes_through(self, triangle_graph):
        spec = resolve_solver("pkmc", triangle_graph)
        assert resolve_solver(spec, None) is spec  # graph type irrelevant

    def test_non_graph_rejected(self):
        with pytest.raises(EngineError, match="cannot infer solver kind"):
            resolve_solver("pkmc", [1, 2, 3])
