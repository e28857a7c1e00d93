"""Triangle-densest subgraph (k-clique density with k = 3).

Tsourakakis (WWW 2015) generalises edge density to k-clique density
tau_k(S) = (#k-cliques in G[S]) / |S|; the paper's related work surveys
this line and its conclusion proposes relating such denser-than-edges
notions to the classic densest subgraph.  This module implements the
k = 3 instance:

* :func:`triangle_counts` — per-vertex triangle participation counts;
* :func:`triangle_densest_peel` — Tsourakakis's peeling algorithm
  (iteratively remove the vertex in the fewest triangles, return the
  best prefix), a 1/3-approximation of the triangle-densest subgraph;
* :func:`brute_force_triangle_densest` — the test oracle.

Triangle-dense subgraphs are near-cliques: on social graphs the triangle
objective rejects the bipartite-ish cores that edge density tolerates.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ...core.results import UDSResult
from ...errors import EmptyGraphError
from ...graph.undirected import UndirectedGraph

__all__ = [
    "triangle_counts",
    "total_triangles",
    "triangle_densest_peel",
    "brute_force_triangle_densest",
]


def _neighbor_sets(graph: UndirectedGraph) -> list[set[int]]:
    return [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]


def triangle_counts(graph: UndirectedGraph) -> np.ndarray:
    """Count, for every vertex, the triangles it participates in."""
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    sets = _neighbor_sets(graph)
    # edges().tolist() iterates plain Python ints: the set-intersection
    # body is inherently per-edge, the array unboxing need not be.
    for u, v in graph.edges().tolist():
        small, large = (u, v) if len(sets[u]) <= len(sets[v]) else (v, u)
        for w in sets[small]:
            if w > v and w in sets[large]:
                # u < v < w: counted exactly once.
                counts[u] += 1
                counts[v] += 1
                counts[w] += 1
    return counts


def total_triangles(graph: UndirectedGraph) -> int:
    """Total number of triangles in the graph."""
    return int(triangle_counts(graph).sum()) // 3


def triangle_densest_peel(graph: UndirectedGraph) -> UDSResult:
    """1/3-approximate triangle-densest subgraph by min-triangle peeling."""
    if graph.num_edges == 0:
        raise EmptyGraphError("triangle density is undefined without edges")
    n = graph.num_vertices
    sets = _neighbor_sets(graph)
    counts = triangle_counts(graph)
    alive = np.ones(n, dtype=bool)
    triangles_left = int(counts.sum()) // 3
    vertices_left = n

    best_density = triangles_left / vertices_left
    best_prefix = 0
    removal_order = np.empty(n, dtype=np.int64)
    import heapq

    heap = [(int(counts[v]), v) for v in range(n)]
    heapq.heapify(heap)
    for step in range(n):
        while True:
            key, v = heapq.heappop(heap)
            if alive[v] and key == counts[v]:
                break
        alive[v] = False
        removal_order[step] = v
        # Every triangle through v dies; decrement its two other corners.
        live_neighbors = [u for u in sets[v] if alive[u]]
        for i, u in enumerate(live_neighbors):
            for w in live_neighbors[i + 1:]:
                if w in sets[u]:
                    triangles_left -= 1
                    counts[u] -= 1
                    counts[w] -= 1
                    heapq.heappush(heap, (int(counts[u]), u))
                    heapq.heappush(heap, (int(counts[w]), w))
        counts[v] = 0
        vertices_left -= 1
        if vertices_left > 0:
            density = triangles_left / vertices_left
            if density > best_density:
                best_density = density
                best_prefix = step + 1
    return UDSResult(
        algorithm="TriangleDensest",
        vertices=np.sort(removal_order[best_prefix:]),
        density=best_density,
        iterations=n,
    )


def brute_force_triangle_densest(
    graph: UndirectedGraph, max_vertices: int = 14
) -> UDSResult:
    """Exhaustive triangle-densest subgraph (test oracle)."""
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"brute force limited to {max_vertices} vertices")
    if graph.num_edges == 0:
        raise EmptyGraphError("triangle density is undefined without edges")
    sets = _neighbor_sets(graph)
    best_density = -1.0
    best_subset: tuple[int, ...] = ()
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            member = set(subset)
            triangles = 0
            for u, v, w in combinations(subset, 3):
                if v in sets[u] and w in sets[u] and w in sets[v]:
                    triangles += 1
            density = triangles / size
            if density > best_density:
                best_density = density
                best_subset = subset
            del member
    return UDSResult(
        algorithm="BruteForceTriangle",
        vertices=np.asarray(best_subset, dtype=np.int64),
        density=best_density,
    )
