"""Local — full h-index core decomposition (Sariyuce et al.; Algorithm 1).

Runs synchronous h-index sweeps until *no* vertex changes, at which point
every vertex's value equals its core number.  The k*-core (the vertices at
the maximum) is then a 2-approximate UDS.  This is the state-of-the-art
parallel nucleus-decomposition baseline the paper optimises: PKMC is Local
plus the Theorem-1 early stop, so the iteration gap between the two (paper
Table 6) is the paper's core claim for undirected graphs.
"""

from __future__ import annotations

import numpy as np

from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...graph.undirected import UndirectedGraph
from ...runtime.simruntime import SimRuntime
from ...core.results import UDSResult
from ...kernels.frontier import frontier_synchronous_sweep
from .common import induced_density

__all__ = ["local_uds", "local_core_decomposition"]


def local_core_decomposition(
    graph: UndirectedGraph,
    runtime: SimRuntime | None = None,
    max_iterations: int | None = None,
) -> tuple[np.ndarray, int]:
    """Return ``(core_numbers, iterations)`` via h-index iteration.

    ``iterations`` counts every sweep including the final one that detects
    convergence, matching how the paper's Table 6 counts Local.  After the
    first full sweep, each sweep charges the runtime for the vertices with
    a changed neighbour and recomputes only those a changed neighbour fell
    below; the per-sweep arrays, and hence the iteration count, are those
    of full sweeping.
    """
    n = graph.num_vertices
    h = graph.degrees().astype(np.int64)
    limit = max_iterations if max_iterations is not None else n + 2
    sweep_costs = graph.degrees().astype(np.float64) + 4.0
    iterations = 0
    rt = runtime
    woken: np.ndarray | None = None
    frontier: np.ndarray | None = None
    while iterations < limit:
        if rt is not None:
            rt.parfor(sweep_costs if woken is None else sweep_costs[woken])
        new_h, woken, frontier = frontier_synchronous_sweep(
            graph, h, frontier=frontier, runtime=rt
        )
        iterations += 1
        # An empty woken set certifies the fixed point (a changed vertex
        # always wakes its neighbours, and changing requires degree >= 1).
        if woken.size == 0:
            break
        h = new_h
    return new_h if iterations else h, iterations


@register_solver(
    "local",
    kind="uds",
    guarantee="2-approx",
    cost="parallel",
    supports_runtime=True,
    supports_sanitize=True,
)
def local_uds(
    graph: UndirectedGraph,
    runtime: SimRuntime | None = None,
) -> UDSResult:
    """2-approximate UDS via full core decomposition + max extraction."""
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    rt = runtime or SimRuntime(num_threads=1)
    with rt.parallel_region():
        core_numbers, iterations = local_core_decomposition(graph, runtime=rt)
        k_star = int(core_numbers.max())
        rt.parfor(np.full(graph.num_vertices, 1.0))  # max-extraction reduction
    vertices = np.flatnonzero(core_numbers == k_star)
    return UDSResult(
        algorithm="Local",
        vertices=vertices,
        density=induced_density(graph, vertices),
        iterations=iterations,
        k_star=k_star,
        simulated_seconds=rt.now,
        extras={"core_numbers": core_numbers},
    )
