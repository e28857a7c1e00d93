"""Array-backend bench-regression harness (``repro-bench backends``).

Measures the :mod:`repro.backends` dispatch layer on the kernel hot
path: a full Jacobi h-index convergence (degrees to fixed point, the
inner loop every sweep-based solver spends its time in) is timed per
backend on three Chung–Lu replicas, and the **multiproc** backend must
beat the single-threaded numpy reference on the largest graph.

Two wall-clock views are recorded for the multiproc backend, and the
payload always carries both:

* ``elapsed_s`` — true wall clock of the convergence loop.  On a host
  with fewer cores than workers the pool threads time-slice the cores,
  so this number *understates* the backend (every task's CPU second
  still burns wall time).
* ``critical_path_s`` — elapsed with task busy time re-laid onto
  concurrent cores: per dispatched sweep the pool records
  ``max(max_busy, elapsed - sum(busy) + max_busy)`` from each task's
  own :func:`time.thread_time` measurement.  This is the makespan the
  same static partition yields once each worker owns a core, and it is
  what the acceptance gate below checks.

Equivalence is asserted *inside* the bench: the converged h-vectors and
sweep counts must be bit-identical across backends (dtype included), and
one engine run per backend must report identical simulated seconds —
the cost model is a property of the algorithm, never of the executor.

``run_backend_bench`` returns the ``BENCH_backends.json`` payload and
``HARNESS`` registers it with :mod:`repro.bench.gates`, gating the
largest graph's critical-path speedup (floor
:data:`MULTIPROC_SPEEDUP_FLOOR` at >= 2 workers).
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from ..backends import available_backends, use_backend
from ..backends.multiproc import MultiprocBackend
from ..backends.numpy_backend import NumpyBackend
from ..engine import ExecutionContext
from ..engine import run as engine_run
from ..graph import chung_lu_undirected
from .gates import FLAG, FLOOR, PIN, RELATIVE, Gate, Harness, alternating_samples

__all__ = [
    "run_backend_bench",
    "render_backend_report",
    "HARNESS",
    "MULTIPROC_SPEEDUP_FLOOR",
    "BENCH_WORKERS",
]

#: Acceptance floor: multiproc critical-path speedup over numpy on the
#: largest bench graph.  ISSUE.md requires >= 1.5x at >= 2 workers.
MULTIPROC_SPEEDUP_FLOOR = 1.5

#: Worker-pool size the bench runs multiproc with.  Four quarter-graph
#: tasks per sweep shorten the critical path well past the floor on the
#: 360k-edge replica, and the gate condition only requires >= 2.
BENCH_WORKERS = 4

#: (name, vertices, edges, chung-lu seed) per workload, smallest first.
#: The *last* entry is the gated one.
WORKLOADS = (
    ("small", 4_000, 20_000, 7),
    ("medium", 20_000, 100_000, 9),
    ("large", 60_000, 360_000, 11),
)


def _converge(backend, graph) -> tuple[np.ndarray, int]:
    """Jacobi-iterate h from the degrees to the fixed point on ``backend``."""
    h = graph.degrees().astype(np.int64)
    sweeps = 0
    while True:
        new_h = backend.sweep_values(graph, h)
        sweeps += 1
        if np.array_equal(new_h, h):
            return h, sweeps
        h = new_h


def _time_legs(numpy_backend, multiproc: MultiprocBackend, graph, repeats: int):
    """Median numpy seconds and the multiproc timing block of one convergence."""

    def _numpy_leg() -> None:
        _converge(numpy_backend, graph)

    def _multiproc_leg() -> dict:
        multiproc.reset_perf()
        _converge(multiproc, graph)
        return multiproc.perf_snapshot()

    numpy_samples, multi_samples = alternating_samples(
        [_numpy_leg, _multiproc_leg], repeats
    )
    snapshot = multi_samples[-1][1]
    multi = {
        "elapsed_s": statistics.median(s for s, _ in multi_samples),
        # Whole-run critical path: parent-side time outside the dispatch
        # is serial either way, so swap the dispatched elapsed for the
        # dispatched critical path and keep the rest.
        "critical_path_s": statistics.median(
            s - snap["elapsed_s"] + snap["critical_s"] for s, snap in multi_samples
        ),
        "dispatched_calls": snapshot["dispatched_calls"],
        "inline_calls": snapshot["inline_calls"],
        "tasks": snapshot["tasks"],
    }
    return statistics.median(s for s, _ in numpy_samples), multi


def _simulated_invariance(backends: list[str]) -> dict:
    """Simulated seconds of one pkmc run per backend — must all agree."""
    graph = chung_lu_undirected(2_000, 10_000, seed=3)
    seconds = {}
    for name in backends:
        with use_backend(name):
            ctx = ExecutionContext(num_threads=8)
            engine_run("pkmc", graph, ctx)
            seconds[name] = ctx.simulated_seconds
    values = set(seconds.values())
    if len(values) != 1:
        raise AssertionError(
            f"simulated seconds differ across backends: {seconds}"
        )
    return {"per_backend": seconds, "invariant": True}


def run_backend_bench(
    repeats: int = 5,
    workers: int = BENCH_WORKERS,
    workloads: tuple = WORKLOADS,
) -> dict:
    """Run the backend benches; return the ``BENCH_backends.json`` payload.

    ``workloads`` exists so tests can exercise the full harness on tiny
    graphs; the committed baseline always uses the module default.
    """
    numpy_backend = NumpyBackend()
    multiproc = MultiprocBackend(workers=workers)
    results = []
    try:
        for name, num_vertices, num_edges, seed in workloads:
            graph = chung_lu_undirected(num_vertices, num_edges, seed=seed)

            # Equivalence first, timing second: the numbers below are
            # meaningless unless the backends agree bit for bit.
            h_numpy, sweeps_numpy = _converge(numpy_backend, graph)
            h_multi, sweeps_multi = _converge(multiproc, graph)
            if h_numpy.dtype != h_multi.dtype or not np.array_equal(h_numpy, h_multi):
                raise AssertionError(
                    f"{name}: multiproc fixed point differs from numpy"
                )
            if sweeps_numpy != sweeps_multi:
                raise AssertionError(
                    f"{name}: sweep counts differ "
                    f"(numpy {sweeps_numpy}, multiproc {sweeps_multi})"
                )

            numpy_s, multi = _time_legs(numpy_backend, multiproc, graph, repeats)
            results.append({
                "name": name,
                "num_vertices": num_vertices,
                "num_edges": graph.num_edges,
                "seed": seed,
                "sweeps": sweeps_numpy,
                "numpy_s": numpy_s,
                "multiproc": {
                    **multi,
                    "speedup_elapsed": numpy_s / multi["elapsed_s"],
                    "speedup_critical": numpy_s / multi["critical_path_s"],
                },
                "equivalent": True,
            })
    finally:
        multiproc.close()

    return {
        "schema": 1,
        "host": {
            "cpu_count": os.cpu_count(),
            "workers": workers,
            "repeats": repeats,
        },
        "backends_available": available_backends(),
        "workloads": results,
        "simulated_seconds": _simulated_invariance(["numpy", "multiproc"]),
    }


def render_backend_report(payload: dict) -> str:
    """Readable summary of a backend-bench payload."""
    host = payload["host"]
    available = ", ".join(
        name for name, ok in sorted(payload["backends_available"].items()) if ok
    )
    lines = [
        f"backend bench (multiproc workers={host['workers']}, "
        f"host cpus={host['cpu_count']}, available: {available})",
    ]
    for workload in payload["workloads"]:
        multi = workload["multiproc"]
        lines.append(
            f"  {workload['name']:<7}: {workload['num_vertices']:>6} v / "
            f"{workload['num_edges']:>6} e | numpy "
            f"{workload['numpy_s'] * 1e3:8.1f} ms | multiproc "
            f"{multi['elapsed_s'] * 1e3:8.1f} ms elapsed, "
            f"{multi['critical_path_s'] * 1e3:8.1f} ms critical | "
            f"{multi['speedup_critical']:5.2f}x critical"
        )
    sim = payload["simulated_seconds"]["per_backend"]
    pairs = " | ".join(f"{name} {value:.4g}s" for name, value in sorted(sim.items()))
    lines.append(f"  simulated seconds (pkmc, backend-invariant): {pairs}")
    return "\n".join(lines)


HARNESS = Harness(
    # Tolerance wider than the single-threaded harnesses' 25%: the
    # multiproc numbers time-slice a small host's cores, so run-to-run
    # speedup variance is higher; the absolute floor owns the hard
    # requirement.
    "backends", run_backend_bench, render_backend_report, tolerance=0.35, gates=(
        Gate(FLOOR, "host.workers", "bench ran multiproc with too few workers", floor=2),
        Gate(FLOOR, "workloads.-1.multiproc.speedup_critical",
             "largest workload's multiproc critical-path speedup is below the "
             "acceptance floor", floor=MULTIPROC_SPEEDUP_FLOOR),
        Gate(FLAG, "workloads.*.equivalent",
             "workload {key}: backends did not produce bit-identical results"),
        Gate(FLAG, "simulated_seconds.invariant",
             "simulated seconds are not backend-invariant"),
        # Only the gated (largest) workload is compared with the baseline:
        # the small/medium entries are tens of milliseconds of numpy work,
        # where one CPU-frequency excursion swings the ratio past any
        # reasonable tolerance.
        Gate(PIN, "workloads.-1.name", "gated workload changed"),
        Gate(RELATIVE, "workloads.-1.multiproc.speedup_critical",
             "largest workload's multiproc critical-path speedup regressed"),
    ),
)
