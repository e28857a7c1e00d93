"""Connected components of undirected graphs.

The paper notes that a k*-core (and likewise an [x*, y*]-core) "may have
multiple connected components, and any one of them can be regarded as a
2-approximation solution".  These helpers let callers split a returned
core into its components and pick one — e.g. the densest.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .undirected import UndirectedGraph

__all__ = [
    "connected_components",
    "component_of_vertices",
    "densest_component",
]


def connected_components(graph: UndirectedGraph) -> np.ndarray:
    """Label every vertex with its component id (0-based, BFS order)."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = next_label
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if labels[v] < 0:
                    labels[v] = next_label
                    queue.append(v)
        next_label += 1
    return labels


def component_of_vertices(
    graph: UndirectedGraph, vertices: np.ndarray
) -> list[np.ndarray]:
    """Split ``vertices`` into the connected components of their induced
    subgraph, largest first."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return []
    sub, original_ids = graph.induced_subgraph(vertices)
    labels = connected_components(sub)
    groups = [
        original_ids[labels == label] for label in range(int(labels.max()) + 1)
    ]
    groups.sort(key=len, reverse=True)
    return groups


def densest_component(
    graph: UndirectedGraph, vertices: np.ndarray
) -> tuple[np.ndarray, float]:
    """Return the densest connected component of the induced subgraph.

    For a k*-core every component has density >= k*/2, so each is a valid
    2-approximation; this picks the best of them.
    """
    best_vertices = np.asarray(vertices, dtype=np.int64)
    best_density = -1.0
    for component in component_of_vertices(graph, vertices):
        sub, _ = graph.induced_subgraph(component)
        density = sub.density()
        if density > best_density:
            best_density = density
            best_vertices = component
    return best_vertices, best_density

