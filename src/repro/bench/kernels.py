"""Kernel-layer bench-regression harness (``repro-bench kernels``).

Measures the kernel layer (``repro.kernels``) against the
pre-kernel-layer formulations kept in-tree as references, and records
the simulated cost of the solvers built on it:

* **wall-clock, one full sweep** — sort-free :func:`segment_h_index`
  versus the O(m log m) ``lexsort`` formulation
  (:func:`reference_segment_h_index`) on one full h-index sweep;
* **wall-clock, convergence tail** — the frontier sweep loop versus
  repeated full lexsort sweeps from the first sweep that wakes fewer
  than half the vertices, where almost every vertex is already at its
  fixed point and the frontier path should win by well over the 2x the
  acceptance bar demands;
* **simulated parallel seconds** — PKMC (both sweep modes), Local and PWC
  under one :class:`~repro.runtime.simruntime.SimRuntime` each, whose
  frontier accounting charges each sweep only for the vertices or edges
  it wakes (recorded as ``frontier_s``).

``run_kernel_bench`` returns the ``BENCH_kernels.json`` payload and
``HARNESS`` registers it with :mod:`repro.bench.gates`: simulated costs
are deterministic and gated with a tolerance for additive accounting
changes, wall-clock through speedup ratios.
"""

from __future__ import annotations

import numpy as np

from ..engine import ExecutionContext
from ..engine import run as engine_run
from ..graph import chung_lu_directed, chung_lu_undirected
from ..kernels.frontier import frontier_synchronous_sweep
from ..kernels.segments import reference_segment_h_index, segment_h_index
from .config import DEFAULT_THREADS
from .gates import FLOOR, RELATIVE, Gate, Harness, alternating_medians, ratio

__all__ = ["run_kernel_bench", "render_kernel_report", "HARNESS"]


def _warm_tail_state(graph):
    """Sweep until fewer than half the vertices are still woken.

    That point marks the convergence *tail*: the regime the frontier path
    targets, where a full re-scan recomputes mostly-converged vertices.
    Returns ``(h, frontier)`` at the tail's start.
    """
    h = graph.degrees().astype(np.int64)
    frontier = None
    while True:
        h, woken, frontier = frontier_synchronous_sweep(graph, h, frontier=frontier)
        if woken.size < graph.num_vertices / 2:
            return h, frontier


def _lexsort_full_sweep(graph, h):
    return reference_segment_h_index(
        graph.indptr, h[graph.indices], seg_rows=graph.heads()
    )


def _run_tail_lexsort(graph, h_start):
    """Full lexsort sweeps from the warm start until the fixed point."""
    h = h_start
    sweeps = 0
    while True:
        new_h = _lexsort_full_sweep(graph, h)
        sweeps += 1
        if np.array_equal(new_h, h):
            return h, sweeps
        h = new_h


def _run_tail_frontier(graph, h_start, frontier_start):
    """Frontier sweeps from the same warm start until none wakes a vertex.

    Like the lexsort loop, the count includes the sweep that changes
    nothing.
    """
    h, frontier = h_start.copy(), frontier_start
    sweeps = 0
    while True:
        h, woken, frontier = frontier_synchronous_sweep(graph, h, frontier=frontier)
        sweeps += 1
        if woken.size == 0:
            return h, sweeps


def _simulated(solver: str, graph, threads: int, **options) -> dict:
    """Simulated seconds of one solver run."""
    ctx = ExecutionContext(num_threads=threads)
    engine_run(solver, graph, ctx, **options)
    return {"frontier_s": ctx.simulated_seconds}


def run_kernel_bench(
    num_vertices: int = 20_000,
    num_edges: int = 100_000,
    repeats: int = 5,
    threads: int = DEFAULT_THREADS,
) -> dict:
    """Run the kernel benches; return the ``BENCH_kernels.json`` payload."""
    undirected = chung_lu_undirected(num_vertices, num_edges, seed=1)
    directed = chung_lu_directed(num_vertices, num_edges, seed=2)

    # --- wall clock: one full sweep, lexsort vs sort-free ----------------
    h0 = undirected.degrees().astype(np.int64)
    neighbor_values = h0[undirected.indices]
    bin_ptr = undirected.hindex_bins()

    def _sort_free_sweep():
        return segment_h_index(
            undirected.indptr, neighbor_values,
            seg_rows=undirected.heads(), bin_ptr=bin_ptr,
        )

    if not np.array_equal(_lexsort_full_sweep(undirected, h0), _sort_free_sweep()):
        raise AssertionError("sort-free sweep disagrees with the lexsort sweep")
    old_sweep, new_sweep = alternating_medians(
        [lambda: _lexsort_full_sweep(undirected, h0), _sort_free_sweep], repeats
    )

    # --- wall clock: convergence tail, full lexsort loop vs frontier -----
    h_warm, frontier_warm = _warm_tail_state(undirected)
    old_fix, old_tail_sweeps = _run_tail_lexsort(undirected, h_warm)
    new_fix, new_tail_sweeps = _run_tail_frontier(undirected, h_warm, frontier_warm)
    if not np.array_equal(old_fix, new_fix):
        raise AssertionError("frontier tail reaches a different fixed point")
    old_tail, new_tail = alternating_medians(
        [
            lambda: _run_tail_lexsort(undirected, h_warm),
            lambda: _run_tail_frontier(undirected, h_warm, frontier_warm),
        ],
        repeats,
    )

    # --- simulated parallel seconds -------------------------------------
    simulated = {
        "pkmc_synchronous": _simulated("pkmc", undirected, threads),
        "pkmc_degree_order": _simulated(
            "pkmc", undirected, threads, sweep="degree_order"
        ),
        "local": _simulated("local", undirected, threads),
        "pwc": _simulated("pwc", directed, threads),
    }

    return {
        "schema": 1,
        "workload": {
            "num_vertices": num_vertices,
            "num_edges_requested": num_edges,
            "num_edges_undirected": undirected.num_edges,
            "num_edges_directed": directed.num_edges,
            "generator": "chung_lu(seed=1 undirected, seed=2 directed)",
            "threads": threads,
            "repeats": repeats,
        },
        "wall_clock": {
            "full_sweep": {
                "lexsort_s": old_sweep,
                "sort_free_s": new_sweep,
                "speedup": ratio(old_sweep, new_sweep),
            },
            "tail_sweeps": {
                "lexsort_full_s": old_tail,
                "frontier_s": new_tail,
                "speedup": ratio(old_tail, new_tail),
                "lexsort_sweeps": old_tail_sweeps,
                "frontier_sweeps": new_tail_sweeps,
            },
        },
        "simulated_seconds": simulated,
    }


def render_kernel_report(payload: dict) -> str:
    """Readable summary of a kernel-bench payload."""
    wall = payload["wall_clock"]
    lines = [
        "kernel bench "
        f"({payload['workload']['num_vertices']} vertices, "
        f"{payload['workload']['num_edges_undirected']} undirected edges)",
        (
            "  full sweep   : lexsort "
            f"{wall['full_sweep']['lexsort_s'] * 1e3:8.2f} ms | sort-free "
            f"{wall['full_sweep']['sort_free_s'] * 1e3:8.2f} ms | "
            f"{wall['full_sweep']['speedup']:5.2f}x"
        ),
        (
            "  tail sweeps  : lexsort "
            f"{wall['tail_sweeps']['lexsort_full_s'] * 1e3:8.2f} ms | frontier "
            f"{wall['tail_sweeps']['frontier_s'] * 1e3:8.2f} ms | "
            f"{wall['tail_sweeps']['speedup']:5.2f}x"
        ),
    ]
    for solver, entry in payload["simulated_seconds"].items():
        lines.append(f"  sim {solver:<18}: frontier {entry['frontier_s']:.4g}s")
    return "\n".join(lines)


HARNESS = Harness(
    "kernels", run_kernel_bench, render_kernel_report, tolerance=0.25, gates=(
        Gate(FLOOR, "wall_clock.tail_sweeps.speedup",
             "tail frontier speedup is below the acceptance floor", floor=2.0),
        Gate(RELATIVE, "wall_clock.*.speedup", "wall-clock {key} speedup regressed"),
        Gate(RELATIVE, "simulated_seconds.*.frontier_s",
             "{key}: frontier simulated cost regressed vs baseline",
             lower_is_better=True),
    ),
)
