"""k-truss decomposition and truss-based dense subgraphs.

The paper's conclusion names "the theoretical relationship between other
dense subgraphs (e.g. k-truss ...) and the densest graph" as future work;
this module provides the machinery for that exploration:

* :func:`truss_decomposition` labels every edge with its truss number —
  the largest k such that a k-truss (every edge in >= k - 2 triangles
  within the subgraph) contains it;
* :func:`max_truss_uds` returns the maximum truss as a dense-subgraph
  candidate.  A k-truss has minimum degree >= k - 1, so its density is at
  least (k - 1)/2 — a guarantee mirroring the k*-core's k/2 bound, with
  trusses usually being smaller and denser in practice.
"""

from __future__ import annotations

import heapq

import numpy as np

from ...core.results import UDSResult
from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...graph.undirected import UndirectedGraph
from ...store.csr import sorted_unique
from .common import induced_density

__all__ = ["edge_support", "truss_decomposition", "max_truss_uds"]


def _edge_index(graph: UndirectedGraph) -> dict[tuple[int, int], int]:
    return {
        (int(u), int(v)): index
        for index, (u, v) in enumerate(graph.edges().tolist())
    }


def edge_support(graph: UndirectedGraph) -> np.ndarray:
    """Count the triangles through every edge (the edge's *support*)."""
    edges = graph.edges()
    support = np.zeros(edges.shape[0], dtype=np.int64)
    neighbor_sets = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
    for index, (u, v) in enumerate(edges.tolist()):
        small, large = (u, v) if len(neighbor_sets[u]) <= len(neighbor_sets[v]) else (v, u)
        support[index] = sum(
            1 for w in neighbor_sets[small] if w in neighbor_sets[large]
        )
    return support


def truss_decomposition(graph: UndirectedGraph) -> tuple[np.ndarray, int]:
    """Label every edge with its truss number; return ``(labels, k_max)``.

    Standard support peeling: repeatedly remove the edge with minimum
    support s, assigning it truss number max(s + 2, current level), and
    decrement the support of the edges of every triangle it closed.
    """
    m = graph.num_edges
    truss = np.zeros(m, dtype=np.int64)
    if m == 0:
        return truss, 0
    edges = graph.edges()
    index_of = _edge_index(graph)
    neighbor_sets = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
    support = edge_support(graph)
    alive = np.ones(m, dtype=bool)
    heap = [(int(support[e]), e) for e in range(m)]
    heapq.heapify(heap)
    level = 2
    remaining = m
    while remaining:
        s, e = heapq.heappop(heap)
        if not alive[e] or s != support[e]:
            continue
        level = max(level, s + 2)
        truss[e] = level
        alive[e] = False
        remaining -= 1
        u, v = int(edges[e, 0]), int(edges[e, 1])
        neighbor_sets[u].discard(v)
        neighbor_sets[v].discard(u)
        small, large = (u, v) if len(neighbor_sets[u]) <= len(neighbor_sets[v]) else (v, u)
        for w in neighbor_sets[small]:
            if w not in neighbor_sets[large]:
                continue
            for other in ((min(u, w), max(u, w)), (min(v, w), max(v, w))):
                other_id = index_of[other]
                if alive[other_id]:
                    support[other_id] -= 1
                    heapq.heappush(heap, (int(support[other_id]), other_id))
    return truss, int(truss.max())


@register_solver("max-truss", kind="uds", guarantee="heuristic", cost="serial")
def max_truss_uds(graph: UndirectedGraph) -> UDSResult:
    """Dense subgraph candidate: the maximum k-truss of the graph.

    Returns the vertices of the k_max-truss; its density is at least
    (k_max - 1)/2.  Not a formal 2-approximation of the densest subgraph,
    but typically a tighter, cleaner community than the k*-core (the
    future-work comparison the paper suggests; see
    ``benchmarks/bench_ablations.py`` and the extension tests).
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    truss, k_max = truss_decomposition(graph)
    member_edges = graph.edges()[truss == k_max]
    vertices = sorted_unique(member_edges)
    return UDSResult(
        algorithm="MaxTruss",
        vertices=vertices,
        density=induced_density(graph, vertices),
        k_star=k_max,
        extras={"truss_numbers": truss},
    )
