"""Shared induced-subgraph edge counting for density reports.

Every solver family used to rebuild ``np.repeat(np.arange(n), degrees)``
just to count the edges inside its answer set; this module is the single
implementation, one vectorised pass over the graph's cached ``heads()``
scratch buffer, executed by the active array backend
(:mod:`repro.backends` — the multiproc backend splits the slot range
across pool threads on large graphs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..backends import get_backend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.undirected import UndirectedGraph

__all__ = ["induced_edge_count", "induced_density"]


def induced_edge_count(graph: "UndirectedGraph", member: np.ndarray) -> int:
    """Number of edges with both endpoints inside the ``member`` mask."""
    return get_backend().induced_edge_count(graph, member)


def induced_density(graph: "UndirectedGraph", vertices: np.ndarray) -> float:
    """Density ``|E(S)| / |S|`` of the subgraph induced by ``vertices``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        # Guard before building the membership mask: the edge scan below
        # is O(m) and pointless for an empty vertex set.
        return 0.0
    member = np.zeros(graph.num_vertices, dtype=bool)
    member[vertices] = True
    return induced_edge_count(graph, member) / vertices.size
