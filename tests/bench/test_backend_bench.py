"""The backend bench harness: payload shape and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.backends import (
    BENCH_WORKERS,
    MULTIPROC_SPEEDUP_FLOOR,
    render_backend_report,
    run_backend_bench,
)
from repro.bench.gates import harness

check_regression = harness("backends").check

REPO_ROOT = Path(__file__).resolve().parents[2]


def good_payload():
    """Synthetic payload with healthy numbers for gate-logic tests."""

    def workload(name, speedup):
        return {
            "name": name,
            "num_vertices": 1000,
            "num_edges": 5000,
            "seed": 1,
            "sweeps": 9,
            "numpy_s": 0.5,
            "multiproc": {
                "elapsed_s": 0.6,
                "critical_path_s": 0.5 / speedup,
                "speedup_elapsed": 0.5 / 0.6,
                "speedup_critical": speedup,
                "dispatched_calls": 9,
                "inline_calls": 0,
                "tasks": 36,
            },
            "equivalent": True,
        }

    return {
        "schema": 1,
        "host": {"cpu_count": 4, "workers": 4, "repeats": 5},
        "backends_available": {"numpy": True, "multiproc": True},
        "workloads": [
            workload("small", 1.8),
            workload("medium", 2.0),
            workload("large", 2.2),
        ],
        "simulated_seconds": {
            "per_backend": {"numpy": 0.001, "multiproc": 0.001},
            "invariant": True,
        },
    }


class TestGateLogic:
    def test_healthy_payload_passes(self):
        assert check_regression(good_payload(), good_payload()) == []

    def test_floor_gates_largest_workload(self):
        current = good_payload()
        current["workloads"][-1]["multiproc"]["speedup_critical"] = (
            MULTIPROC_SPEEDUP_FLOOR - 0.1
        )
        failures = check_regression(current, good_payload())
        assert any("acceptance floor" in f for f in failures)

    def test_floor_ignores_small_workloads(self):
        current = good_payload()
        current["workloads"][0]["multiproc"]["speedup_critical"] = 0.9
        assert check_regression(current, good_payload()) == []

    def test_single_worker_run_fails_gate(self):
        current = good_payload()
        current["host"]["workers"] = 1
        failures = check_regression(current, good_payload())
        assert any("requires >= 2" in f for f in failures)

    def test_equivalence_flag_gates(self):
        current = good_payload()
        current["workloads"][1]["equivalent"] = False
        failures = check_regression(current, good_payload())
        assert any("bit-identical" in f for f in failures)

    def test_simulated_invariance_gates(self):
        current = good_payload()
        current["simulated_seconds"]["invariant"] = False
        failures = check_regression(current, good_payload())
        assert any("backend-invariant" in f for f in failures)

    def test_largest_regression_vs_baseline_fails(self):
        baseline = good_payload()
        baseline["workloads"][-1]["multiproc"]["speedup_critical"] = 4.0
        failures = check_regression(good_payload(), baseline)
        assert any("regressed" in f for f in failures)

    def test_small_regression_vs_baseline_tolerated(self):
        # Within tolerance: 2.2 vs 2.4 baseline.
        baseline = good_payload()
        baseline["workloads"][-1]["multiproc"]["speedup_critical"] = 2.4
        assert check_regression(good_payload(), baseline) == []

    def test_renamed_gated_workload_fails(self):
        baseline = good_payload()
        baseline["workloads"][-1]["name"] = "huge"
        failures = check_regression(good_payload(), baseline)
        assert any("gated workload changed" in f for f in failures)


class TestRender:
    def test_report_mentions_workloads_and_backends(self):
        text = render_backend_report(good_payload())
        for token in ("small", "medium", "large", "workers=4", "numpy"):
            assert token in text


class TestCommittedBaseline:
    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(
            (REPO_ROOT / "BENCH_backends.json").read_text(encoding="utf-8")
        )

    def test_baseline_meets_the_acceptance_gate(self, baseline):
        # The committed baseline must satisfy its own gate: multiproc
        # beat numpy by the floor on the largest graph, at >= 2 workers,
        # with in-bench equivalence asserted.
        assert baseline["host"]["workers"] >= 2
        largest = baseline["workloads"][-1]
        assert largest["multiproc"]["speedup_critical"] >= MULTIPROC_SPEEDUP_FLOOR
        assert all(w["equivalent"] for w in baseline["workloads"])
        assert baseline["simulated_seconds"]["invariant"]

    def test_baseline_records_host_transparently(self, baseline):
        # The payload must not hide the measurement conditions: cpu
        # count, worker count, repeats, and both wall-clock views.
        assert set(baseline["host"]) == {"cpu_count", "workers", "repeats"}
        for workload in baseline["workloads"]:
            multi = workload["multiproc"]
            assert multi["elapsed_s"] > 0.0
            assert multi["critical_path_s"] > 0.0
            assert multi["speedup_elapsed"] == pytest.approx(
                workload["numpy_s"] / multi["elapsed_s"]
            )
            assert multi["speedup_critical"] == pytest.approx(
                workload["numpy_s"] / multi["critical_path_s"]
            )


class TestLivePayload:
    @pytest.fixture(scope="class")
    def payload(self):
        # One real run on tiny graphs: the full harness path — spawn,
        # shared-memory publication, in-bench equivalence assertions,
        # simulated-seconds invariance — just without the big graphs.
        workloads = (("tiny", 400, 1_600, 1), ("less_tiny", 800, 3_200, 2))
        return run_backend_bench(repeats=1, workers=2, workloads=workloads)

    def test_payload_shape(self, payload):
        assert payload["schema"] == 1
        assert payload["host"]["workers"] == 2
        assert [w["name"] for w in payload["workloads"]] == ["tiny", "less_tiny"]
        for workload in payload["workloads"]:
            assert workload["equivalent"] is True
            assert workload["sweeps"] >= 1
            assert workload["numpy_s"] > 0.0
            multi = workload["multiproc"]
            assert multi["critical_path_s"] > 0.0
            assert multi["speedup_critical"] > 0.0

    def test_simulated_seconds_invariant_in_live_run(self, payload):
        sim = payload["simulated_seconds"]
        assert sim["invariant"] is True
        assert set(sim["per_backend"]) == {"numpy", "multiproc"}

    def test_defaults_meet_gate_preconditions(self):
        assert BENCH_WORKERS >= 2
