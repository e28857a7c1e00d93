"""The serving bench harness: payload shape and the regression gate."""

import copy
import json

import pytest

from repro.bench.gates import harness
from repro.bench.serve import (
    HOT_GRAPH_REUSE_FLOOR,
    SERVE_THROUGHPUT_FLOOR,
    render_serve_report,
    run_serve_bench,
)

check_regression = harness("serve").check

MIXES = ("hot-graph", "hot-solver", "uniform")


@pytest.fixture(scope="module")
def tiny_payload():
    # Small replay: wall-clock speedups are noisy at this size, so tests
    # assert structure and the built-in bit-identity checks (which raise
    # inside run_serve_bench on any served-vs-direct mismatch).
    return run_serve_bench(num_queries=18, wave=6, threads=4)


def good_payload():
    """Synthetic payload with healthy numbers for gate-logic tests."""
    def mix_cell(speedup, reuse):
        return {
            "num_queries": 120,
            "serial": {"total_s": 2.0, "qps": 60.0, "p50_s": 0.3, "p99_s": 0.6},
            "served": {
                "total_s": 0.2, "qps": 60.0 * speedup, "p50_s": 0.01,
                "p99_s": 0.1, "solver_runs": 9, "cache_hits": 80,
                "coalesced": 31, "batches": 9, "reuse_rate": reuse,
            },
            "throughput_speedup": speedup,
            "p99_speedup": 6.0,
        }

    return {
        "schema": 1,
        "workload": {
            "graphs": {"hot": {}, "warm": {}, "cold": {}},
            "solvers": ["pkmc", "charikar", "local"],
            "num_queries": 120,
            "wave": 40,
            "threads": 4,
            "seed": 0,
        },
        "mixes": {
            "hot-graph": mix_cell(11.0, 0.9),
            "hot-solver": mix_cell(12.0, 0.9),
            "uniform": mix_cell(10.0, 0.9),
        },
        "overload": {
            "submitted": 240, "accepted": 72,
            "rejected_queue_full": 109, "rejected_quota": 59,
            "peak_queue_depth": 24, "max_queue_depth": 24,
            "p99_s": 0.09, "max_solve_s": 0.03, "p99_bound_s": 0.72,
            "p99_bounded": True,
        },
    }


class TestPayload:
    def test_structure(self, tiny_payload):
        assert tiny_payload["schema"] == 1
        assert set(tiny_payload["mixes"]) == set(MIXES)
        for cell in tiny_payload["mixes"].values():
            assert cell["throughput_speedup"] > 0
            assert cell["served"]["solver_runs"] > 0
            assert 0.0 <= cell["served"]["reuse_rate"] <= 1.0
            assert cell["serial"]["p50_s"] <= cell["serial"]["p99_s"]

    def test_served_answers_fewer_solver_runs_than_queries(self, tiny_payload):
        for cell in tiny_payload["mixes"].values():
            served = cell["served"]
            assert served["solver_runs"] < cell["num_queries"]
            accounted = (
                served["solver_runs"] + served["cache_hits"] + served["coalesced"]
            )
            assert accounted == cell["num_queries"]

    def test_overload_sheds_and_stays_bounded(self, tiny_payload):
        overload = tiny_payload["overload"]
        assert overload["rejected_queue_full"] > 0
        assert overload["rejected_quota"] > 0
        assert overload["peak_queue_depth"] <= overload["max_queue_depth"]
        assert overload["accepted"] + overload["rejected_queue_full"] + (
            overload["rejected_quota"]
        ) == overload["submitted"]
        assert overload["p99_bounded"]

    def test_payload_is_json_serialisable(self, tiny_payload):
        assert json.loads(json.dumps(tiny_payload)) == tiny_payload

    def test_report_renders(self, tiny_payload):
        text = render_serve_report(tiny_payload)
        for needle in ("hot-graph", "hot-solver", "uniform", "overload", "reuse"):
            assert needle in text


class TestRegressionGate:
    def test_identical_healthy_payload_passes(self):
        assert check_regression(good_payload(), good_payload()) == []

    def test_hot_graph_throughput_floor(self):
        current = good_payload()
        current["mixes"]["hot-graph"]["throughput_speedup"] = (
            SERVE_THROUGHPUT_FLOOR * 0.9
        )
        baseline = copy.deepcopy(current)
        failures = check_regression(current, baseline)
        assert any("acceptance floor" in f for f in failures)

    def test_reuse_rate_floor(self):
        current = good_payload()
        current["mixes"]["hot-graph"]["served"]["reuse_rate"] = (
            HOT_GRAPH_REUSE_FLOOR * 0.5
        )
        failures = check_regression(current, good_payload())
        assert any("reuse rate" in f for f in failures)

    def test_throughput_ratio_regression(self):
        current = good_payload()
        current["mixes"]["uniform"]["throughput_speedup"] = 6.0  # from 10x
        failures = check_regression(current, good_payload())
        assert any("uniform throughput speedup regressed" in f for f in failures)

    def test_small_noise_tolerated(self):
        current = good_payload()
        for mix in MIXES:
            current["mixes"][mix]["throughput_speedup"] *= 0.85  # within 30%
        assert check_regression(current, good_payload()) == []

    def test_overload_must_shed_structurally(self):
        current = good_payload()
        current["overload"]["rejected_quota"] = 0
        failures = check_regression(current, good_payload())
        assert any("shed structurally" in f for f in failures)

    def test_queue_growth_past_bound_fails(self):
        current = good_payload()
        current["overload"]["peak_queue_depth"] = 999
        failures = check_regression(current, good_payload())
        assert any("past its bound" in f for f in failures)

    def test_unbounded_p99_fails(self):
        current = good_payload()
        current["overload"]["p99_bounded"] = False
        failures = check_regression(current, good_payload())
        assert any("structural bound" in f for f in failures)

    @pytest.mark.parametrize("mix", MIXES)
    def test_missing_mix_is_a_named_failure(self, mix):
        current = good_payload()
        del current["mixes"][mix]
        failures = check_regression(current, good_payload())
        assert failures
        assert all(f"mixes.{mix}." in f and "missing" in f for f in failures)

    def test_committed_baseline_is_well_formed(self):
        from pathlib import Path

        baseline_path = Path(__file__).parents[2] / "BENCH_serve.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["schema"] == 1
        hot = baseline["mixes"]["hot-graph"]
        # The committed baseline must itself satisfy the acceptance bars.
        assert hot["throughput_speedup"] >= SERVE_THROUGHPUT_FLOOR
        assert hot["served"]["reuse_rate"] >= HOT_GRAPH_REUSE_FLOOR
        assert baseline["overload"]["rejected_queue_full"] > 0
        assert baseline["overload"]["rejected_quota"] > 0
        assert baseline["overload"]["p99_bounded"]
