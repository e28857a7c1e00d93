"""Density-friendly decomposition (Tatti & Gionis 2015; Danisch et al. 2017).

The paper's related work surveys this "nested dense subgraphs" line: the
*locally-dense decomposition* of a graph is the chain
emptyset = B_0 ⊂ B_1 ⊂ ... ⊂ B_k = V where each B_{i+1} maximises the
marginal density (|E(B)| - |E(B_i)|) / (|B| - |B_i|) over supersets of
B_i.  The first block B_1 is exactly the (maximal) densest subgraph, and
the per-block marginal densities are non-increasing — a density profile
of the whole graph rather than a single subgraph.

Implemented by repeated max-flow: each step solves a *conditioned*
densest-subgraph problem where the current inner block is free (its
vertices cost nothing), which the Goldberg construction accommodates by
wiring the inner block straight to the source.  Exact, and therefore a
small-graph tool like the other flow solvers.
"""

from __future__ import annotations

import numpy as np

from ...errors import EmptyGraphError
from ...flow.maxflow import FlowNetwork
from ...graph.undirected import UndirectedGraph

__all__ = ["density_friendly_decomposition", "density_profile"]


def _conditioned_cut(
    graph: UndirectedGraph,
    inner: np.ndarray,
    g_scaled: int,
    scale: int,
) -> np.ndarray | None:
    """Source side with marginal density > g/scale given ``inner`` free."""
    n, m = graph.num_vertices, graph.num_edges
    source, sink = n, n + 1
    net = FlowNetwork(n + 2)
    degrees = graph.degrees()
    inner_mask = np.zeros(n, dtype=bool)
    inner_mask[inner] = True
    huge = 4.0 * m * scale + 4.0 * g_scaled + 4.0
    for v in range(n):
        net.add_edge(source, v, m * scale)
        if inner_mask[v]:
            # Inner vertices are free: force them onto the source side.
            net.add_edge(source, v, huge)
            net.add_edge(v, sink, m * scale)
        else:
            net.add_edge(v, sink, m * scale + 2 * g_scaled - int(degrees[v]) * scale)
    edges = graph.edges()
    net.add_edges(edges[:, 0], edges[:, 1], scale)
    net.add_edges(edges[:, 1], edges[:, 0], scale)
    net.max_flow(source, sink)
    side = net.min_cut_source_side(source)
    members = side[side < n]
    if members.size <= inner.size:
        return None
    return members


def _marginal_density(
    graph: UndirectedGraph, block: np.ndarray, inner: np.ndarray
) -> float:
    inner_mask = np.zeros(graph.num_vertices, dtype=bool)
    inner_mask[inner] = True
    block_mask = np.zeros(graph.num_vertices, dtype=bool)
    block_mask[block] = True
    heads = graph.heads()
    in_block = block_mask[heads] & block_mask[graph.indices] & (heads < graph.indices)
    in_inner = inner_mask[heads] & inner_mask[graph.indices] & (heads < graph.indices)
    edge_gain = int(np.count_nonzero(in_block)) - int(np.count_nonzero(in_inner))
    vertex_gain = block.size - inner.size
    return edge_gain / vertex_gain if vertex_gain else 0.0


def density_friendly_decomposition(
    graph: UndirectedGraph, max_vertices: int = 400
) -> list[tuple[np.ndarray, float]]:
    """Return the locally-dense chain as ``[(block_vertices, marginal_density), ...]``.

    Blocks are cumulative (each contains the previous); the first block is
    the maximal densest subgraph and the marginal densities are
    non-increasing (property-tested).
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("decomposition is undefined without edges")
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(f"flow-based decomposition limited to {max_vertices} vertices")
    scale = n * n
    chain: list[tuple[np.ndarray, float]] = []
    inner = np.empty(0, dtype=np.int64)
    while inner.size < n:
        # Binary search the largest marginal density achievable beyond inner.
        lo, hi = 0, graph.num_edges * scale + 1
        best = _conditioned_cut(graph, inner, 0, scale)
        if best is None:
            # No edges left beyond inner: close the chain with the rest.
            outside = np.ones(n, dtype=bool)
            outside[inner] = False
            rest = np.flatnonzero(outside)
            chain.append((np.sort(np.concatenate([inner, rest])), 0.0))
            break
        while hi - lo > 1:
            mid = (lo + hi) // 2
            candidate = _conditioned_cut(graph, inner, mid, scale)
            if candidate is not None:
                lo = mid
                best = candidate
            else:
                hi = mid
        block = np.sort(best)
        chain.append((block, _marginal_density(graph, block, inner)))
        inner = block
    return chain


def density_profile(graph: UndirectedGraph, max_vertices: int = 400) -> np.ndarray:
    """Per-vertex marginal density: the density of the block that first
    absorbs each vertex (a vertex-level 'how dense is my best context')."""
    chain = density_friendly_decomposition(graph, max_vertices=max_vertices)
    profile = np.zeros(graph.num_vertices)
    seen = np.zeros(graph.num_vertices, dtype=bool)
    for block, marginal in chain:
        fresh = block[~seen[block]]
        profile[fresh] = marginal
        seen[fresh] = True
    return profile
