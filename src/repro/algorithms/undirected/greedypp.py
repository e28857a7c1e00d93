"""Greedy++ — iterated load-aware peeling (Boob et al., WWW 2020).

An extension baseline (paper Table 1 cites it among the 2-approximations):
repeat Charikar's peel T times, but order removals by degree *plus* a load
carried over from earlier rounds; each round's loads steer later rounds
away from prematurely peeling dense-region vertices, converging toward the
true densest subgraph as T grows.
"""

from __future__ import annotations

import heapq

import numpy as np

from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...graph.peeling import densest_prefix
from ...graph.undirected import UndirectedGraph
from ...runtime.simruntime import SimRuntime
from ...core.results import UDSResult
from .common import charge_serial_peel

__all__ = ["greedypp_uds"]


def _one_load_aware_peel(
    graph: UndirectedGraph, loads: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """One peel ordered by load + degree; returns (best set, density, loads).

    The heap loop runs over Python lists and reads adjacency through a
    ``memoryview`` of ``graph.indices``; the keys are the same doubles the
    float64 arrays would hold, so the removal order is unchanged.
    """
    n = graph.num_vertices
    degree = graph.degrees().tolist()
    load = loads.tolist()
    new_loads = list(load)
    alive = [True] * n
    indptr = graph.indptr.tolist()
    adjacency = memoryview(graph.indices)
    # Lazy-deletion heap keyed by load + current degree.
    heap = [(load[v] + degree[v], v) for v in range(n)]
    heapq.heapify(heap)
    removal_order = []
    while heap:
        key, v = heapq.heappop(heap)
        if not alive[v] or key != load[v] + degree[v]:
            continue
        alive[v] = False
        new_loads[v] = key
        removal_order.append(v)
        for u in adjacency[indptr[v]:indptr[v + 1]]:
            if alive[u]:
                d = degree[u] - 1
                degree[u] = d
                heapq.heappush(heap, (load[u] + d, u))
    order = np.array(removal_order, dtype=np.int64)
    best_prefix, best_density = densest_prefix(graph, order)
    return (
        np.sort(order[best_prefix:]),
        best_density,
        np.array(new_loads, dtype=np.float64),
    )


@register_solver(
    "greedypp", kind="uds", guarantee="heuristic", cost="serial", supports_runtime=True
)
def greedypp_uds(
    graph: UndirectedGraph,
    num_rounds: int = 8,
    runtime: SimRuntime | None = None,
) -> UDSResult:
    """Return the best subgraph found by ``num_rounds`` load-aware peels."""
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    if num_rounds < 1:
        raise ValueError("num_rounds must be >= 1")
    loads = np.zeros(graph.num_vertices)
    best_vertices: np.ndarray | None = None
    best_density = -1.0
    for _ in range(num_rounds):
        vertices, density, loads = _one_load_aware_peel(graph, loads)
        if runtime is not None:
            charge_serial_peel(runtime, graph)
        if density > best_density:
            best_density = density
            best_vertices = vertices
    assert best_vertices is not None
    return UDSResult(
        algorithm="Greedy++",
        vertices=best_vertices,
        density=best_density,
        iterations=num_rounds,
        simulated_seconds=runtime.now if runtime is not None else 0.0,
    )
