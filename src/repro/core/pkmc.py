"""PKMC — Parallel k*-core computation (paper Algorithm 2).

PKMC runs the h-index sweeps of Local (Algorithm 1) but stops as soon as
Theorem 1 certifies that the vertices currently holding the maximum h-index
form the k*-core:

    If h_max did not change between two consecutive sweeps AND the number
    of vertices attaining h_max did not change either, then k* = h_max and
    those vertices induce the k*-core.

Combined with the Proposition-1 guard (a k*-core has at least k* + 1
vertices, so the criterion is only consulted once more than h_max vertices
sit at the maximum), this typically stops after 3–5 sweeps where Local
needs tens to thousands (paper Table 6).  The k*-core is a 2-approximation
of the undirected densest subgraph (Fang et al.; paper Lemma 1).
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..engine.spec import register_solver
from ..errors import EmptyGraphError
from ..graph.undirected import UndirectedGraph
from ..kernels.density import induced_density
from ..kernels.frontier import (
    frontier_inplace_sweep,
    frontier_synchronous_sweep,
    gauss_seidel_batches,
)
from ..runtime.simruntime import SimRuntime
from .hindex import degree_descending_order
from .results import UDSResult

__all__ = ["pkmc"]

_PER_VERTEX_OVERHEAD_UNITS = 4.0


def _sweep_costs(graph: UndirectedGraph) -> np.ndarray:
    """Per-vertex work units of one h-index sweep (degree + constant)."""
    return graph.degrees().astype(np.float64) + _PER_VERTEX_OVERHEAD_UNITS


def _core_density(graph: UndirectedGraph, vertices: np.ndarray) -> float:
    """Density |E(S)|/|S| of the subgraph induced by ``vertices``."""
    return induced_density(graph, vertices)


@register_solver(
    "pkmc",
    kind="uds",
    guarantee="2-approx",
    cost="parallel",
    supports_runtime=True,
    supports_sanitize=True,
    supports_streaming=True,
)
def pkmc(
    graph: UndirectedGraph,
    runtime: SimRuntime | None = None,
    early_stop: bool = True,
    proposition1_guard: bool = True,
    sweep: Literal["synchronous", "degree_order"] = "synchronous",
    max_iterations: int | None = None,
) -> UDSResult:
    """Return the k*-core of ``graph`` as a 2-approximate UDS.

    Parameters
    ----------
    graph:
        The input undirected graph; must contain at least one edge.
    runtime:
        Optional :class:`SimRuntime` used to account the simulated parallel
        cost of every sweep (one ``parfor`` over the vertices the sweep
        wakes — all of them on the first sweep, then those with a changed
        neighbour, of which only the ones a neighbour fell below are
        recomputed — plus a parallel reduction for ``h_max`` and its
        multiplicity).  With
        ``SimRuntime(sanitize=True)`` the sweeps additionally execute their
        per-vertex kernels under the parfor race sanitizer (the
        ``degree_order`` sweep is annotated order-dependent, so both modes
        pass clean).
    early_stop:
        Apply Theorem 1.  Disabling it makes PKMC behave exactly like Local
        followed by a max-extraction, which is the paper's principal
        ablation (Exp-2 measures exactly this gap).
    proposition1_guard:
        Apply the line-12 guard ``s <= h_max -> keep iterating``.
    sweep:
        ``"synchronous"`` (Jacobi, the parallel semantics) or
        ``"degree_order"`` (in-place sweeps in non-ascending degree order,
        as in the paper's Fig. 2 walkthrough); both converge to the same
        answer.
    max_iterations:
        Safety bound; defaults to ``num_vertices + 2``.

    Returns
    -------
    UDSResult
        ``vertices`` is the k*-core, ``k_star`` its core value,
        ``iterations`` the number of sweeps executed, and
        ``extras["history"]`` the per-sweep ``(h_max, s)`` trace.
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    rt = runtime or SimRuntime(num_threads=1)
    limit = max_iterations if max_iterations is not None else graph.num_vertices + 2
    order = degree_descending_order(graph) if sweep == "degree_order" else None

    h = graph.degrees().astype(np.int64)
    h_max = int(h.max())
    s = int(np.count_nonzero(h == h_max))
    history: list[tuple[int, int]] = [(h_max, s)]
    iterations = 0
    early_stop_fired = False

    sweep_costs = _sweep_costs(graph)
    woken: np.ndarray | None = None  # Jacobi woken set (None = all, sweep 1)
    frontier: np.ndarray | None = None  # the woken vertices recomputed
    dirty: np.ndarray | None = None  # Gauss–Seidel dirty mask
    batches = gauss_seidel_batches(graph, order) if sweep == "degree_order" else None

    with rt.parallel_region():
        # Initialisation: one parallel pass to set h(v) = d(v) and reduce max.
        rt.parfor(np.full(graph.num_vertices, 2.0))
        while iterations < limit:
            if sweep == "synchronous":
                # Charge the woken set (all n on sweep 1); the kernel
                # recomputes only its frontier.
                rt.parfor(sweep_costs if woken is None else sweep_costs[woken])
                new_h, woken, frontier = frontier_synchronous_sweep(
                    graph, h, frontier=frontier, runtime=rt
                )
                # Changed vertices have degree >= 1 (h starts at the
                # degrees), so they always wake at least one neighbour:
                # an empty woken set means nothing changed.
                changed = woken.size > 0
            else:
                new_h, dirty, processed = frontier_inplace_sweep(
                    graph, h.copy(), dirty=dirty, batches=batches, runtime=rt
                )
                # Charge in natural vertex order, as the Jacobi path does.
                rt.parfor(sweep_costs[np.sort(processed)])
                changed = bool(np.any(new_h[processed] < h[processed]))
            # Parallel reduction for h_max and its multiplicity (lines 10-11).
            rt.parfor(np.full(graph.num_vertices, 1.0))
            new_h_max = int(new_h.max())
            new_s = int(np.count_nonzero(new_h == new_h_max))
            iterations += 1
            history.append((new_h_max, new_s))

            guard_blocks_stop = proposition1_guard and new_s <= new_h_max
            if (
                early_stop
                and not guard_blocks_stop
                and new_h_max == h_max
                and new_s == s
            ):
                h, h_max, s = new_h, new_h_max, new_s
                early_stop_fired = True
                break
            h, h_max, s = new_h, new_h_max, new_s
            if not changed:
                break

    core_vertices = np.flatnonzero(h == h_max)
    rt.parfor(float(core_vertices.size + 1))  # extraction pass
    density = _core_density(graph, core_vertices)
    return UDSResult(
        algorithm="PKMC",
        vertices=core_vertices,
        density=density,
        iterations=iterations,
        k_star=h_max,
        simulated_seconds=rt.now,
        extras={
            "history": history,
            "early_stop_fired": early_stop_fired,
            "sweep": sweep,
        },
    )
