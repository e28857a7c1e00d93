"""The storage bench harness: payload shape and the regression gate."""

import json

import pytest

from repro.bench.gates import harness
from repro.bench.store import render_store_report, run_store_bench

check_regression = harness("store").check

WALL_SECTIONS = {"ingestion", "end_to_end", "csr_build", "snapshot", "cache"}


@pytest.fixture(scope="module")
def tiny_payload():
    # A small workload keeps the suite fast; wall-clock speedups are noisy
    # at this size, so tests only assert structure and the built-in
    # equivalence checks (which raise inside run_store_bench on mismatch).
    return run_store_bench(num_vertices=300, num_edges=900, repeats=1, threads=4)


def good_payload():
    """Synthetic payload with healthy numbers for gate-logic tests."""
    return {
        "schema": 1,
        "workload": {"num_vertices": 20_000, "num_edges": 100_000},
        "wall_clock": {
            "ingestion": {
                "line_by_line_s": 0.08,
                "vectorized_s": 0.032,
                "speedup": 2.5,
            },
            "end_to_end": {
                "line_by_line_s": 0.14,
                "vectorized_s": 0.08,
                "speedup": 1.75,
            },
            "csr_build": {
                "lexsort_s": 0.02,
                "counting_sort_s": 0.005,
                "speedup": 4.0,
            },
            "snapshot": {"text_parse_s": 0.08, "npz_load_s": 0.002, "speedup": 40.0},
            "cache": {"cold_s": 0.1, "hit_s": 0.0001, "speedup": 1000.0},
        },
        "memory": {
            "int32_bytes": 880_004,
            "int64_bytes": 1_760_008,
            "ratio": 2.0,
            "index_dtype": "int32",
        },
    }


class TestPayload:
    def test_structure(self, tiny_payload):
        assert tiny_payload["schema"] == 1
        assert set(tiny_payload["wall_clock"]) == WALL_SECTIONS
        for section in tiny_payload["wall_clock"].values():
            assert section["speedup"] > 0
        assert tiny_payload["memory"]["int32_bytes"] > 0

    def test_small_graph_actually_narrows(self, tiny_payload):
        memory = tiny_payload["memory"]
        assert memory["index_dtype"] == "int32"
        assert memory["int64_bytes"] == 2 * memory["int32_bytes"]
        assert memory["ratio"] == pytest.approx(2.0)

    def test_payload_is_json_serialisable(self, tiny_payload):
        assert json.loads(json.dumps(tiny_payload)) == tiny_payload

    def test_report_renders(self, tiny_payload):
        text = render_store_report(tiny_payload)
        for needle in ("ingestion", "csr build", "snapshot", "cache", "memory"):
            assert needle in text


class TestRegressionGate:
    def test_identical_healthy_payload_passes(self):
        assert check_regression(good_payload(), good_payload()) == []

    @pytest.mark.parametrize(
        "section, floor",
        [("ingestion", 2.0), ("csr_build", 2.0), ("snapshot", 5.0), ("cache", 50.0)],
    )
    def test_absolute_speedup_floors(self, section, floor):
        current = good_payload()
        current["wall_clock"][section]["speedup"] = floor * 0.9
        baseline = good_payload()
        baseline["wall_clock"][section]["speedup"] = floor * 0.9
        failures = check_regression(current, baseline)
        assert any("acceptance floor" in f for f in failures)

    def test_wall_clock_ratio_regression(self):
        current = good_payload()
        current["wall_clock"]["end_to_end"]["speedup"] = 1.0
        failures = check_regression(current, good_payload())
        assert any("end_to_end speedup regressed" in f for f in failures)

    def test_small_wall_clock_noise_tolerated(self):
        current = good_payload()
        for section in ("ingestion", "end_to_end", "csr_build", "snapshot"):
            current["wall_clock"][section]["speedup"] *= 0.9  # within 25%
        assert check_regression(current, good_payload()) == []

    def test_cache_is_gated_on_the_absolute_floor_only(self):
        # Hit latency is timer-noise-dominated, so a large baseline ratio
        # must not make a healthy current run fail.
        current = good_payload()
        current["wall_clock"]["cache"]["speedup"] = 100.0  # >> 50x floor
        baseline = good_payload()
        baseline["wall_clock"]["cache"]["speedup"] = 5000.0
        assert check_regression(current, baseline) == []

    def test_memory_ratio_floor(self):
        current = good_payload()
        current["memory"]["ratio"] = 1.5
        failures = check_regression(current, good_payload())
        assert any("compaction ratio" in f for f in failures)

    def test_memory_growth_fails(self):
        current = good_payload()
        current["memory"]["int32_bytes"] += 1
        failures = check_regression(current, good_payload())
        assert any("footprint grew" in f for f in failures)

    def test_committed_baseline_is_well_formed(self):
        from pathlib import Path

        baseline_path = Path(__file__).parents[2] / "BENCH_store.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["schema"] == 1
        # The committed baseline must itself satisfy the acceptance bars.
        wall = baseline["wall_clock"]
        assert wall["ingestion"]["speedup"] >= 2.0
        assert wall["csr_build"]["speedup"] >= 2.0
        assert wall["snapshot"]["speedup"] >= 5.0
        assert wall["cache"]["speedup"] >= 50.0
        assert baseline["memory"]["ratio"] >= 1.8
