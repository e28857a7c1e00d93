"""The kernel bench harness: payload shape and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import harness
from repro.bench.kernels import render_kernel_report, run_kernel_bench

check_regression = harness("kernels").check

BASELINE_PATH = Path(__file__).parents[2] / "BENCH_kernels.json"


@pytest.fixture(scope="module")
def tiny_payload():
    # A small workload keeps the suite fast; wall-clock speedups are noisy
    # at this size, so tests only assert structure and simulated costs.
    return run_kernel_bench(num_vertices=400, num_edges=1_200, repeats=1, threads=4)


def good_payload():
    """Synthetic payload with healthy numbers for gate-logic tests."""
    return {
        "schema": 1,
        "workload": {"num_vertices": 20_000, "num_edges_undirected": 100_000},
        "wall_clock": {
            "full_sweep": {"lexsort_s": 0.025, "sort_free_s": 0.009, "speedup": 2.8},
            "tail_sweeps": {
                "lexsort_full_s": 0.075,
                "frontier_s": 0.024,
                "speedup": 3.1,
            },
        },
        "simulated_seconds": {
            "pkmc_synchronous": {"frontier_s": 0.0009, "full_s": 0.0010},
            "pwc": {"frontier_s": 0.0004, "full_s": 0.0004},
        },
    }


class TestPayload:
    def test_structure(self, tiny_payload):
        assert tiny_payload["schema"] == 1
        wall = tiny_payload["wall_clock"]
        assert set(wall) == {"full_sweep", "tail_sweeps"}
        for section in wall.values():
            assert section["speedup"] > 0
        assert set(tiny_payload["simulated_seconds"]) == {
            "pkmc_synchronous",
            "pkmc_degree_order",
            "local",
            "pwc",
        }

    def test_frontier_simulated_cost_never_higher(self, tiny_payload):
        for solver, pair in tiny_payload["simulated_seconds"].items():
            assert pair["frontier_s"] <= pair["full_s"] * (1 + 1e-9), solver

    def test_payload_is_json_serialisable(self, tiny_payload):
        assert json.loads(json.dumps(tiny_payload)) == tiny_payload

    def test_report_renders(self, tiny_payload):
        text = render_kernel_report(tiny_payload)
        assert "full sweep" in text and "tail sweeps" in text
        assert "pwc" in text


class TestRegressionGate:
    def test_identical_healthy_payload_passes(self):
        assert check_regression(good_payload(), good_payload()) == []

    def test_tail_speedup_floor(self):
        current = good_payload()
        current["wall_clock"]["tail_sweeps"]["speedup"] = 1.5
        failures = check_regression(current, good_payload())
        assert any("acceptance floor" in f for f in failures)

    def test_wall_clock_ratio_regression(self):
        current = good_payload()
        current["wall_clock"]["full_sweep"]["speedup"] = 1.0
        failures = check_regression(current, good_payload())
        assert any("full_sweep speedup regressed" in f for f in failures)

    def test_small_wall_clock_noise_tolerated(self):
        current = good_payload()
        current["wall_clock"]["full_sweep"]["speedup"] *= 0.9  # within 25%
        current["wall_clock"]["tail_sweeps"]["speedup"] *= 0.9
        assert check_regression(current, good_payload()) == []

    def test_simulated_regression_fails(self):
        current = good_payload()
        pair = current["simulated_seconds"]["pkmc_synchronous"]
        pair["frontier_s"] = pair["frontier_s"] * 2
        pair["full_s"] = pair["full_s"] * 3
        failures = check_regression(current, good_payload())
        assert any("regressed vs baseline" in f for f in failures)

    def test_frontier_above_full_fails(self):
        current = good_payload()
        current["simulated_seconds"]["pwc"]["frontier_s"] = (
            current["simulated_seconds"]["pwc"]["full_s"] * 1.5
        )
        failures = check_regression(current, good_payload())
        assert any("exceeds the full re-scan" in f for f in failures)

    def test_missing_solver_fails(self):
        current = good_payload()
        del current["simulated_seconds"]["pwc"]
        failures = check_regression(current, good_payload())
        assert any("missing" in f for f in failures)

    def test_unlisted_solver_frontier_above_full_fails(self):
        # Frontier <= full holds for every solver of the fresh payload,
        # not only those the committed baseline lists.
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        current = copy.deepcopy(baseline)
        current["simulated_seconds"]["new_solver"] = {"frontier_s": 9.0, "full_s": 1.0}
        failures = check_regression(current, baseline)
        assert any(
            "new_solver: frontier simulated cost exceeds the full re-scan" in f
            for f in failures
        )

    def test_committed_baseline_is_well_formed(self):
        baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))
        assert baseline["schema"] == 1
        # The committed baseline must itself satisfy the acceptance bars.
        assert baseline["wall_clock"]["tail_sweeps"]["speedup"] >= 2.0
        for solver, pair in baseline["simulated_seconds"].items():
            assert pair["frontier_s"] <= pair["full_s"] * (1 + 1e-9), solver
