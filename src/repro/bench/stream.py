"""Streaming-maintenance harness (``repro-bench stream``).

Plays the same seeded sliding-window temporal stream
(:func:`repro.datasets.sliding_window_stream` over the PT replica)
through two :class:`repro.stream.StreamSession` modes:

* **rebuild** — the historical baseline: every batch's refresh is a
  full warm-started re-convergence over the whole graph
  (rebuild-per-batch);
* **incremental** — the localized path: per-update subcore regions with
  the configurable full-rebuild fallback.

Each batch is applied and then queried (``k_star()`` — the read-mix a
streaming consumer issues).  One mode's replay of the whole stream is
one leg of :func:`repro.bench.gates.alternating_samples`: the modes take
turns, each replay starts from a fresh session whose window is
converged outside the timed span, and the speedup is the median of the
per-round time ratios over :data:`DEFAULT_REPEATS` rounds.  Every
replay of a mode must end on the same maintenance counters.  A separate,
untimed lockstep pass compares the two modes after every batch
**bit-identically** — ``k_star()``, ``core_numbers()`` and
``densest_subgraph()`` (vertices and density) must agree exactly — so
the speedup can never come from drifting answers.  Two workloads are
measured:

* **small-batch** (8 arrivals + 8 expiries per step, ~0.04% of m —
  well under the gate's 1% ceiling): where localization pays; the
  acceptance floor is ≥ 3x sustained updates/s over rebuild-per-batch;
* **large-batch** (1000 + 1000 per step, beyond the default
  ``region_fraction`` budget): forces the full-rebuild fallback every
  step, pinning that the worst case degrades to the baseline instead
  of past it — the gate asserts the fallback actually fired.

``HARNESS`` registers the harness with :mod:`repro.bench.gates`: the
committed ``BENCH_stream.json`` gate pins *deterministic* quantities
exactly (maintenance counters, sweep totals, bit-identity booleans) and
floors only the wall-clock ratios.
"""

from __future__ import annotations

import statistics

import numpy as np

from ..datasets import load_undirected, sliding_window_stream
from ..stream import StreamSession
from .gates import (
    FLAG, FLOOR, PIN, RELATIVE, Gate, Harness, alternating_samples, ratio,
)

__all__ = [
    "run_stream_bench",
    "render_stream_report",
    "HARNESS",
    "STREAM_SPEEDUP_FLOOR",
]

#: Acceptance floor (ISSUE 10): incremental updates/s over
#: rebuild-per-batch on the small-batch workload.
STREAM_SPEEDUP_FLOOR = 3.0

#: Timed replays per mode, chosen by resampling 3 sets of 20 alternating
#: fresh-session replay pairs per workload on a 2-vCPU host: one pair
#: fell below the small-batch gate in 17% of draws and the large-batch
#: gate in 8%, the median ratio of 7 pairs in 1.1% and 0.0% (the ratio
#: of 7-replay medians: 3.6% and 0.8%).  More do not fit the ~45 s the
#: gate may take there (a small-batch pair costs ~3.5 s).
DEFAULT_REPEATS = 7

#: Deterministic per-workload counters pinned exactly against the
#: committed baseline (pure functions of the seeded stream), and equal
#: across every replay of one mode.
_PINNED = (
    "rebuilds",
    "incremental_refreshes",
    "affected_total",
    "total_sweeps",
)
#: Session counters each replay side reports, in payload order.
_STATS = (
    "rebuilds", "incremental_refreshes", "incremental_fraction",
    "affected_total", "total_sweeps",
)

#: The replica the stream plays over (smallest registry graph: the
#: bench replays it hundreds of times on the rebuild side).
_DATASET = "PT"

_WORKLOADS = (
    # (label, batch_size, num_batches)
    ("small_batch", 8, 30),
    ("large_batch", 1_000, 6),
)

_MODES = ("incremental", "rebuild")


def _assert_lockstep_identical(incremental: StreamSession, rebuild: StreamSession) -> None:
    """Bit-identity of every query surface between the two sessions."""
    if incremental.k_star() != rebuild.k_star():
        raise AssertionError(
            f"k_star drifted: incremental {incremental.k_star()} vs "
            f"rebuild {rebuild.k_star()}"
        )
    if not np.array_equal(incremental.core_numbers(), rebuild.core_numbers()):
        raise AssertionError("core_numbers drifted between maintenance modes")
    left, right = incremental.query(), rebuild.query()
    if not np.array_equal(left.vertices, right.vertices):
        raise AssertionError("densest_subgraph vertices drifted")
    if left.density != right.density:  # repro-lint: disable=R004 (bit-identity is the contract under test)
        raise AssertionError("densest_subgraph density drifted")


def _timed_replays(graph, initial, batches, repeats: int) -> tuple[dict, float]:
    """Per mode, the median replay and its counters; and the speedup.

    The speedup is the median over rounds of the rebuild replay's time
    over the incremental replay's: the two replays of a round run back
    to back, so host drift between rounds cancels out of each ratio.
    """

    def _fresh(mode: str) -> StreamSession:
        session = StreamSession(graph.num_vertices, mode=mode)
        session.apply(insertions=initial)
        session.k_star()  # converge the window outside the timed span
        return session

    def _replay(session: StreamSession) -> dict:
        for batch in batches:
            session.apply(insertions=batch.insertions, deletions=batch.deletions)
            session.k_star()  # the per-batch read-mix
        return session.stats()

    # No untimed replay before each timed one: the untimed setup has just
    # converged the same window, and a replay spans the whole stream.
    samples = alternating_samples(
        [_replay, _replay],
        repeats,
        setups=[lambda mode=mode: _fresh(mode) for mode in _MODES],
        warmup=False,
    )
    updates = sum(batch.size for batch in batches)
    results = {}
    for mode, leg_samples in zip(_MODES, samples):
        runs = [stats for _, stats in leg_samples]
        counters = {tuple(stats[key] for key in _PINNED) for stats in runs}
        if len(counters) != 1:
            raise AssertionError(
                f"{mode} replays disagree on {_PINNED}: {sorted(counters)}"
            )
        total = statistics.median(seconds for seconds, _ in leg_samples)
        results[mode] = {
            "updates": updates,
            "total_s": total,
            "updates_per_s": ratio(updates, total),
            **{key: runs[0][key] for key in _STATS},
        }
    incremental, rebuild = samples
    speedup = statistics.median(
        ratio(reb_s, inc_s) for (inc_s, _), (reb_s, _) in zip(incremental, rebuild)
    )
    return results, speedup


def _run_workload(
    graph, batch_size: int, num_batches: int, seed: int, repeats: int
) -> dict:
    """Timed incremental-vs-rebuild replays, then per-batch identity."""
    initial, batches = sliding_window_stream(
        graph, batch_size=batch_size, num_batches=num_batches, seed=seed
    )
    results, speedup = _timed_replays(graph, initial, batches, repeats)
    check_inc = StreamSession(graph.num_vertices, mode="incremental")
    check_reb = StreamSession(graph.num_vertices, mode="rebuild")
    check_inc.apply(insertions=initial)
    check_reb.apply(insertions=initial)
    checkpoints = 0
    for batch in batches:
        check_inc.apply(insertions=batch.insertions, deletions=batch.deletions)
        check_reb.apply(insertions=batch.insertions, deletions=batch.deletions)
        _assert_lockstep_identical(check_inc, check_reb)
        checkpoints += 1

    incremental, rebuild = results["incremental"], results["rebuild"]
    final = check_inc.query()
    return {
        "batch_size": batch_size,
        "num_batches": num_batches,
        "window_edges": int(initial.shape[0]),
        "updates": incremental["updates"],
        "checkpoints": checkpoints,
        "bit_identical": True,  # _assert_lockstep_identical raised otherwise
        "incremental": incremental,
        "rebuild": rebuild,
        "speedup": speedup,
        "final_report": {
            "k_star": final.k_star,
            "updates_applied": final.report.updates_applied,
            "affected_vertices": final.report.affected_vertices,
            "incremental_fraction": final.report.incremental_fraction,
            "rebuilds": final.report.rebuilds,
        },
    }


def run_stream_bench(
    seed: int = 0, workloads=_WORKLOADS, repeats: int = DEFAULT_REPEATS
) -> dict:
    """Run the streaming benches; return the ``BENCH_stream.json`` payload.

    ``workloads`` overrides the measured ``(label, batch_size,
    num_batches)`` triples — the committed baseline always uses the
    default; tests pass a tiny stream.
    """
    graph = load_undirected(_DATASET)
    workloads = {
        label: _run_workload(graph, batch_size, num_batches, seed, repeats)
        for label, batch_size, num_batches in workloads
    }
    return {
        "schema": 1,
        "workload": {
            "dataset": _DATASET,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
        },
        "workloads": workloads,
    }


def render_stream_report(payload: dict) -> str:
    """Readable summary of a stream-bench payload."""
    workload = payload["workload"]
    lines = [
        f"stream bench ({workload['dataset']}: n={workload['num_vertices']}, "
        f"m={workload['num_edges']}, sliding window)"
    ]
    for label, cell in payload["workloads"].items():
        inc, reb = cell["incremental"], cell["rebuild"]
        lines.append(
            f"  {label:<11}: batches {cell['num_batches']:>3} x "
            f"{cell['batch_size']:>4}+{cell['batch_size']:<4} | "
            f"rebuild {reb['updates_per_s']:8.1f} up/s | incremental "
            f"{inc['updates_per_s']:8.1f} up/s | {cell['speedup']:6.2f}x | "
            f"fallbacks {inc['rebuilds']} | "
            f"identical at {cell['checkpoints']} checkpoints"
        )
    return "\n".join(lines)


HARNESS = Harness(
    "stream", run_stream_bench, render_stream_report, tolerance=0.35, gates=(
        Gate(FLOOR, "workloads.small_batch.speedup",
             "small-batch incremental speedup is below the acceptance floor",
             floor=STREAM_SPEEDUP_FLOOR),
        Gate(FLOOR, "workloads.large_batch.incremental.rebuilds",
             "large-batch workload must exercise the full-rebuild fallback", floor=1),
        Gate(FLAG, "workloads.*.bit_identical", "{key}: modes were not bit-identical"),
        *(
            Gate(PIN, f"workloads.*.incremental.{counter}",
                 f"{{key}} deterministic counter {counter} drifted")
            for counter in _PINNED
        ),
        Gate(RELATIVE, "workloads.*.speedup", "{key} speedup regressed"),
    ),
)
