"""Charikar's serial peeling 2-approximation for UDS (Charikar, 2000).

Iteratively removes a minimum-degree vertex and returns the densest of the
n intermediate subgraphs.  O(m + n) with the Batagelj–Zaversnik bucket
peel of :mod:`repro.graph.peeling`.  This is the classic baseline every
densest-subgraph paper starts from; the ICDE'23 paper's Section I explains
why its strong sequential dependency (every removal must update neighbour
degrees before the next minimum can be found) makes it a poor candidate
for parallelisation.
"""

from __future__ import annotations

import numpy as np

from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...graph.peeling import densest_prefix, min_degree_order
from ...graph.undirected import UndirectedGraph
from ...runtime.simruntime import SimRuntime
from ..undirected.common import charge_serial_peel
from ...core.results import UDSResult

__all__ = ["charikar_peel"]


@register_solver(
    "charikar", kind="uds", guarantee="2-approx", cost="serial", supports_runtime=True
)
def charikar_peel(
    graph: UndirectedGraph, runtime: SimRuntime | None = None
) -> UDSResult:
    """Return a 2-approximate UDS by min-degree peeling.

    The returned subgraph's density is at least half the optimum; tests
    verify this against the exact flow-based solver.
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    order = min_degree_order(graph)
    best_prefix, best_density = densest_prefix(graph, order)
    vertices = np.sort(order[best_prefix:])
    if runtime is not None:
        charge_serial_peel(runtime, graph)
    return UDSResult(
        algorithm="Charikar",
        vertices=vertices,
        density=best_density,
        iterations=graph.num_vertices,
        simulated_seconds=runtime.now if runtime is not None else 0.0,
    )
