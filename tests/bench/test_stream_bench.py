"""The streaming bench harness: payload shape and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.gates import harness
from repro.bench.stream import (
    _PINNED,
    STREAM_SPEEDUP_FLOOR,
    render_stream_report,
    run_stream_bench,
)

check_regression = harness("stream").check

WORKLOADS = ("small_batch", "large_batch")


@pytest.fixture(scope="module")
def tiny_payload():
    # Tiny replay over the real dataset: wall-clock speedups are noisy
    # at this size, so tests assert structure and the built-in lockstep
    # bit-identity checks (which raise inside run_stream_bench on any
    # incremental-vs-rebuild drift).
    return run_stream_bench(
        seed=0,
        workloads=(("small_batch", 4, 3), ("large_batch", 900, 2)),
        repeats=2,
    )


def good_payload():
    """Synthetic payload with healthy numbers for gate-logic tests."""
    def side(updates_per_s, rebuilds, refreshes, affected, sweeps):
        total = rebuilds + refreshes
        return {
            "updates": 480,
            "total_s": 480 / updates_per_s,
            "updates_per_s": updates_per_s,
            "rebuilds": rebuilds,
            "incremental_refreshes": refreshes,
            "incremental_fraction": refreshes / total if total else 0.0,
            "affected_total": affected,
            "total_sweeps": sweeps,
        }

    def cell(batch_size, num_batches, inc, reb, speedup):
        return {
            "batch_size": batch_size,
            "num_batches": num_batches,
            "window_edges": 33272,
            "updates": 2 * batch_size * num_batches,
            "checkpoints": num_batches,
            "bit_identical": True,
            "incremental": inc,
            "rebuild": reb,
            "speedup": speedup,
            "final_report": {
                "k_star": 21,
                "updates_applied": 2 * batch_size * num_batches + 33272,
                "affected_vertices": 900,
                "incremental_fraction": inc["incremental_fraction"],
                "rebuilds": inc["rebuilds"],
            },
        }

    return {
        "schema": 1,
        "workload": {
            "dataset": "PT", "num_vertices": 3105,
            "num_edges": 41590, "seed": 0,
        },
        "workloads": {
            "small_batch": cell(
                8, 30,
                side(1800.0, 1, 30, 900, 120),
                side(180.0, 31, 0, 0, 600),
                10.0,
            ),
            "large_batch": cell(
                1000, 6,
                side(200.0, 7, 0, 0, 150),
                side(190.0, 7, 0, 0, 150),
                1.05,
            ),
        },
    }


class TestPayload:
    def test_structure(self, tiny_payload):
        assert tiny_payload["schema"] == 1
        assert set(tiny_payload["workloads"]) == set(WORKLOADS)
        for cell in tiny_payload["workloads"].values():
            assert cell["bit_identical"] is True
            assert cell["checkpoints"] == cell["num_batches"]
            # sliding-window streams make every op effective
            assert cell["updates"] == 2 * cell["batch_size"] * cell["num_batches"]
            assert cell["speedup"] > 0
            for counter in _PINNED:
                assert cell["incremental"][counter] >= 0

    def test_rebuild_mode_never_refreshes_incrementally(self, tiny_payload):
        for cell in tiny_payload["workloads"].values():
            assert cell["rebuild"]["incremental_refreshes"] == 0
            assert cell["rebuild"]["incremental_fraction"] == 0.0

    def test_oversized_batches_force_the_fallback(self, tiny_payload):
        large = tiny_payload["workloads"]["large_batch"]
        # 2x900 pending updates exceed the default region budget every
        # step, so even the incremental session degrades to rebuilds.
        assert large["incremental"]["rebuilds"] > large["num_batches"] // 2

    def test_final_report_carries_streaming_fields(self, tiny_payload):
        for cell in tiny_payload["workloads"].values():
            report = cell["final_report"]
            assert report["k_star"] > 0
            assert report["updates_applied"] > 0
            assert report["rebuilds"] >= 1  # the bulk window load
            assert 0.0 <= report["incremental_fraction"] <= 1.0

    def test_payload_is_json_serialisable(self, tiny_payload):
        assert json.loads(json.dumps(tiny_payload)) == tiny_payload

    def test_report_renders(self, tiny_payload):
        text = render_stream_report(tiny_payload)
        for needle in ("small_batch", "large_batch", "up/s", "checkpoints"):
            assert needle in text


class TestRegressionGate:
    def test_identical_healthy_payload_passes(self):
        assert check_regression(good_payload(), good_payload()) == []

    def test_small_batch_speedup_floor(self):
        current = good_payload()
        current["workloads"]["small_batch"]["speedup"] = (
            STREAM_SPEEDUP_FLOOR * 0.9
        )
        baseline = copy.deepcopy(current)
        failures = check_regression(current, baseline)
        assert any("acceptance floor" in f for f in failures)

    def test_large_batch_must_exercise_the_fallback(self):
        current = good_payload()
        current["workloads"]["large_batch"]["incremental"]["rebuilds"] = 0
        baseline = copy.deepcopy(current)
        failures = check_regression(current, baseline)
        assert any("full-rebuild fallback" in f for f in failures)

    def test_bit_identity_is_mandatory(self):
        current = good_payload()
        current["workloads"]["small_batch"]["bit_identical"] = False
        failures = check_regression(current, good_payload())
        assert any("bit-identical" in f for f in failures)

    @pytest.mark.parametrize("counter", _PINNED)
    def test_pinned_counters_gate_exactly(self, counter):
        current = good_payload()
        current["workloads"]["small_batch"]["incremental"][counter] += 1
        failures = check_regression(current, good_payload())
        assert any(
            f"deterministic counter {counter} drifted" in f for f in failures
        )

    def test_speedup_ratio_regression(self):
        current = good_payload()
        current["workloads"]["small_batch"]["speedup"] = 5.0  # from 10x
        failures = check_regression(current, good_payload())
        assert any("small_batch speedup regressed" in f for f in failures)

    def test_small_noise_tolerated(self):
        current = good_payload()
        for label in WORKLOADS:
            current["workloads"][label]["speedup"] *= 0.8  # within 35%
        assert check_regression(current, good_payload()) == []

    @pytest.mark.parametrize("side", ["current", "baseline"])
    def test_workload_on_one_side_is_a_named_failure(self, side):
        current, baseline = good_payload(), good_payload()
        extra = current if side == "current" else baseline
        extra["workloads"]["medium_batch"] = copy.deepcopy(
            extra["workloads"]["small_batch"]
        )
        failures = check_regression(current, baseline)
        assert failures
        assert all(
            "workloads.medium_batch." in f and "missing" in f for f in failures
        )

    def test_committed_baseline_is_well_formed(self):
        baseline_path = Path(__file__).parents[2] / "BENCH_stream.json"
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert baseline["schema"] == 1
        small = baseline["workloads"]["small_batch"]
        large = baseline["workloads"]["large_batch"]
        # The committed baseline must itself satisfy the acceptance bars.
        assert small["speedup"] >= STREAM_SPEEDUP_FLOOR
        assert large["incremental"]["rebuilds"] > 0
        assert all(c["bit_identical"] for c in baseline["workloads"].values())
