"""Exact directed densest-subgraph solvers (small-graph tools).

* :func:`brute_force_dds` — exhaustive over source sets S; for a fixed S
  and |T| = t the best T is the t vertices receiving the most S-edges, so
  only O(2^n * n log n) work instead of O(4^n).  The oracle for tests.
* :func:`exact_dds_flow` — iterative improvement with a project-selection
  min-cut: for density guess g and ratio guess c, a cut certifies whether
  some (S, T) satisfies 2|E(S,T)| > g(|S|/sqrt(c) + sqrt(c)|T|), which by
  AM-GM implies rho(S, T) > g for *any* c; scanning the O(n^2) candidate
  ratios a/b makes the certificate complete (Ma et al.'s exact framework).
  Each improvement jumps to an achieved density, so the loop terminates at
  the optimum.
"""

from __future__ import annotations

import numpy as np

from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...flow.maxflow import FlowNetwork
from ...graph.directed import DirectedGraph
from ...store.csr import sorted_unique
from ...core.results import DDSResult
from .common import st_density

__all__ = ["brute_force_dds", "exact_dds_flow", "exact_dds_core"]


@register_solver("brute-force", kind="dds", guarantee="exact", cost="serial")
def brute_force_dds(graph: DirectedGraph, max_vertices: int = 12) -> DDSResult:
    """Exhaustively find the directed densest subgraph (test oracle)."""
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(
            f"brute force is limited to {max_vertices} vertices, got {n}"
        )
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    src, dst = graph.edge_src, graph.edge_dst
    best = (-1.0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    for s_mask in range(1, 1 << n):
        members = np.flatnonzero((s_mask >> np.arange(n)) & 1)
        selected = np.isin(src, members)
        if not selected.any():
            continue
        received = np.bincount(dst[selected], minlength=n)
        order = np.argsort(-received, kind="stable")
        sorted_counts = received[order]
        prefix_edges = np.cumsum(sorted_counts)
        sizes = np.arange(1, n + 1)
        densities = prefix_edges / np.sqrt(members.size * sizes)
        t_count = int(np.argmax(densities)) + 1
        density = float(densities[t_count - 1])
        if density > best[0]:
            best = (density, members, np.sort(order[:t_count]))
    density, s, t = best
    return DDSResult(algorithm="BruteForce", s=s, t=t, density=density)


def _improve_with_cut(
    graph: DirectedGraph, g: float, ratio: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Return (S, T) with 2|E| - g(|S|/sqrt(c) + sqrt(c)|T|) > 0, or None.

    Project-selection construction: source -> edge nodes (capacity 2),
    edge nodes -> their endpoint copies (infinite), endpoint copies ->
    sink (the per-vertex costs).  Positive profit iff min cut < 2m.
    """
    n, m = graph.num_vertices, graph.num_edges
    sqrt_c = float(np.sqrt(ratio))
    source = 2 * n + m
    sink = source + 1
    net = FlowNetwork(2 * n + m + 2)
    infinite = 4.0 * m + 4.0
    for e in range(m):
        edge_node = 2 * n + e
        net.add_edge(source, edge_node, 2.0)
        net.add_edge(edge_node, int(graph.edge_src[e]), infinite)
        net.add_edge(edge_node, n + int(graph.edge_dst[e]), infinite)
    for v in range(n):
        net.add_edge(v, sink, g / sqrt_c)
        net.add_edge(n + v, sink, g * sqrt_c)
    cut = net.max_flow(source, sink)
    if cut >= 2.0 * m - 1e-7:
        return None
    side = net.min_cut_source_side(source)
    s = side[side < n]
    t = side[(side >= n) & (side < 2 * n)] - n
    if s.size == 0 or t.size == 0:
        return None
    return s.astype(np.int64), np.sort(t).astype(np.int64)


@register_solver("exact", kind="dds", guarantee="exact", cost="serial")
def exact_dds_flow(graph: DirectedGraph, max_vertices: int = 64) -> DDSResult:
    """Exact DDS by min-cut improvement over all ratio candidates."""
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(
            f"the exact flow solver is limited to {max_vertices} vertices"
        )
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    ratios = sorted({a / b for a in range(1, n + 1) for b in range(1, n + 1)})
    best_s = sorted_unique(graph.edge_src)
    best_t = sorted_unique(graph.edge_dst)
    best_density = st_density(graph, best_s, best_t)
    improved = True
    iterations = 0
    while improved:
        improved = False
        for ratio in ratios:
            iterations += 1
            found = _improve_with_cut(graph, best_density + 1e-9, ratio)
            if found is None:
                continue
            s, t = found
            density = st_density(graph, s, t)
            if density > best_density + 1e-12:
                best_density = density
                best_s, best_t = s, t
                improved = True
    return DDSResult(
        algorithm="ExactFlow",
        s=np.sort(best_s),
        t=np.sort(best_t),
        density=best_density,
        iterations=iterations,
    )


@register_solver("exact-core", kind="dds", guarantee="exact", cost="serial")
def exact_dds_core(graph: DirectedGraph, max_vertices: int = 64) -> DDSResult:
    """Exact DDS with [x, y]-core pruning (Ma et al.'s DC framework).

    For the optimal pair (S*, T*) with ratio c* = |S*|/|T*| and density
    rho*, every u in S* keeps out-degree >= rho*/(2 sqrt(c*)) and every
    v in T* keeps in-degree >= rho* sqrt(c*)/2 inside the optimum (drop
    the vertex and optimality would be violated), so (S*, T*) lives in
    the corresponding [x, y]-core.  Maintaining a running lower bound L
    on rho* therefore lets each ratio's search run on a *pruned* core
    instead of the whole graph — usually a tiny fraction of it — which
    is what makes the exact solver practical on mid-sized graphs.

    The lower bound is seeded with the PWC 2-approximation.
    """
    n = graph.num_vertices
    if n > max_vertices:
        raise ValueError(
            f"the core-pruned exact solver is limited to {max_vertices} vertices"
        )
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    from ...core.pwc import pwc
    from ...core.xycore import xy_core

    seed = pwc(graph)
    best_density = seed.density
    best_s, best_t = seed.s, seed.t

    ratios = sorted({a / b for a in range(1, n + 1) for b in range(1, n + 1)})
    iterations = 0
    improved = True
    pruned_sizes: list[int] = []
    core_cache: dict[tuple[int, int], object] = {}
    while improved:
        improved = False
        core_cache.clear()  # thresholds depend on the improved bound
        for ratio in ratios:
            sqrt_c = float(np.sqrt(ratio))
            x = max(int(np.ceil(best_density / (2.0 * sqrt_c) - 1e-9)), 1)
            y = max(int(np.ceil(best_density * sqrt_c / 2.0 - 1e-9)), 1)
            core = core_cache.get((x, y))
            if core is None:
                core = xy_core(graph, x, y)
                core_cache[(x, y)] = core
            if not core.exists:
                continue
            # rho(S, T) <= sqrt(|E|): a core too small to beat the bound
            # cannot contain an improvement.
            if np.sqrt(core.num_edges) <= best_density + 1e-12:
                continue
            pruned = graph.subgraph_from_edge_mask(core.edge_mask)
            pruned_sizes.append(pruned.num_edges)
            iterations += 1
            found = _improve_with_cut(pruned, best_density + 1e-9, ratio)
            if found is None:
                continue
            s, t = found
            density = st_density(graph, s, t)
            if density > best_density + 1e-12:
                best_density = density
                best_s, best_t = s, t
                improved = True
    return DDSResult(
        algorithm="ExactCore",
        s=np.sort(best_s),
        t=np.sort(best_t),
        density=best_density,
        iterations=iterations,
        extras={
            "seed_density": seed.density,
            "max_pruned_edges": max(pruned_sizes, default=0),
            "total_edges": graph.num_edges,
        },
    )
