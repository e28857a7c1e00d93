"""w-induced subgraphs and their decomposition (paper Section V-B).

Definitions 8–10: every directed edge (u, v) carries the weight
``d^+(u) * d^-(v)`` measured in the current subgraph; the *w-induced
subgraph* is the maximal subgraph whose every edge weight is >= w; an
edge's *induce-number* is the largest w for which a w-induced subgraph
contains it, and w* is the maximum induce-number.

Two engines are provided:

* :func:`wstar_subgraph` — the round-based parallel peeling of Algorithm 3
  specialised to what PWC needs (only the w*-induced subgraph, not every
  induce-number), including the paper's Remark: since
  ``w* >= d_max``, all edges with weight < d_max can be discarded before
  the main loop, which is what shrinks Twitter by ~50% in the first
  iteration (Table 7).
* :func:`winduced_decomposition` — an exact serial peeling that labels
  every edge with its induce-number (the directed analogue of core
  decomposition; used by tests, Table 3 reproduction, and the safe mode).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import EmptyGraphError
from ..graph.directed import DirectedGraph
from ..kernels.segments import concat_ranges
from ..runtime.simruntime import SimRuntime
from ..store.csr import sorted_unique

__all__ = [
    "edge_weights",
    "winduced_subgraph",
    "wstar_subgraph",
    "winduced_decomposition",
    "WStarResult",
]


def edge_weights(
    graph: DirectedGraph, edge_mask: np.ndarray | None = None
) -> np.ndarray:
    """Return the weight d^+(u) * d^-(v) of every edge (Definition 8).

    Degrees are measured within the subgraph selected by ``edge_mask``
    (default: the whole graph).  Entries for masked-out edges are 0.
    """
    src, dst = graph.edge_src, graph.edge_dst
    if edge_mask is None:
        dout = graph.out_degrees()
        din = graph.in_degrees()
        return dout[src] * din[dst]
    alive_src = src[edge_mask]
    alive_dst = dst[edge_mask]
    dout = np.bincount(alive_src, minlength=graph.num_vertices)
    din = np.bincount(alive_dst, minlength=graph.num_vertices)
    weights = np.zeros(graph.num_edges, dtype=np.int64)
    weights[edge_mask] = dout[alive_src] * din[alive_dst]
    return weights


def _touched_alive_edges(
    graph: DirectedGraph,
    alive: np.ndarray,
    touched_src: np.ndarray,
    touched_dst: np.ndarray,
) -> np.ndarray:
    """Alive edges whose weight may have changed after removing edges
    incident to ``touched_src`` (out-degree dropped) or ``touched_dst``
    (in-degree dropped): the alive out-edges of touched sources plus the
    alive in-edges of touched destinations."""
    out_starts = graph.out_indptr[touched_src]
    out_slots = concat_ranges(out_starts, graph.out_indptr[touched_src + 1] - out_starts)
    in_starts = graph.in_indptr[touched_dst]
    in_slots = concat_ranges(in_starts, graph.in_indptr[touched_dst + 1] - in_starts)
    candidates = sorted_unique(
        np.concatenate([graph.out_edge_ids[out_slots], graph.in_edge_ids[in_slots]])
    )
    return candidates[alive[candidates]]


def _cascade(
    graph: DirectedGraph,
    alive: np.ndarray,
    dout: np.ndarray,
    din: np.ndarray,
    threshold: int,
    strict: bool,
    runtime: SimRuntime | None,
    frontier: bool = True,
) -> int:
    """Remove edges with weight < threshold (strict) or <= threshold.

    Runs synchronous rounds to a fixpoint, mutating ``alive``/``dout``/
    ``din`` in place; returns the number of rounds executed.  Each round is
    one parallel sweep (Algorithm 3's inner while-loop body).

    With ``frontier=True`` (default) rounds after the first only re-check
    the edges adjacent to the previous round's removals — an edge weight
    ``d^+(u) * d^-(v)`` can only drop when an incident removal lowers one
    of its endpoint degrees, and weights only decrease, so an unchanged
    edge that once passed the threshold still passes it.  Removal sets and
    round counts are identical to the full re-scan; only the simulated
    parallel cost charged per round shrinks to the candidate set.
    """
    src, dst = graph.edge_src, graph.edge_dst
    rounds = 0
    remaining = int(np.count_nonzero(alive))
    candidates: np.ndarray | None = None  # None means "all alive edges".
    while True:
        if remaining == 0:
            return rounds
        if frontier and candidates is not None:
            cand_ids = candidates
        else:
            cand_ids = np.flatnonzero(alive)
        weights = dout[src[cand_ids]] * din[dst[cand_ids]]
        bad = weights < threshold if strict else weights <= threshold
        rounds += 1
        if runtime is not None:
            runtime.parfor(
                float(cand_ids.size), atomic_ops=int(np.count_nonzero(bad))
            )
        if not bad.any():
            return rounds
        dead_ids = cand_ids[bad]
        alive[dead_ids] = False
        remaining -= int(dead_ids.size)
        np.subtract.at(dout, src[dead_ids], 1)
        np.subtract.at(din, dst[dead_ids], 1)
        if frontier:
            candidates = _touched_alive_edges(
                graph, alive, sorted_unique(src[dead_ids]),
                sorted_unique(dst[dead_ids]),
            )


def winduced_subgraph(
    graph: DirectedGraph,
    w: int,
    edge_mask: np.ndarray | None = None,
    runtime: SimRuntime | None = None,
    frontier: bool = True,
) -> np.ndarray:
    """Return the edge mask of the w-induced subgraph (Definition 9).

    Peels edges whose weight falls below ``w`` until none remain; the
    result may be empty.  The nested property (Proposition 3) — a larger w
    yields a subset — is property-tested.
    """
    alive = (
        np.ones(graph.num_edges, dtype=bool)
        if edge_mask is None
        else edge_mask.copy()
    )
    alive_src = graph.edge_src[alive]
    alive_dst = graph.edge_dst[alive]
    dout = np.bincount(alive_src, minlength=graph.num_vertices).astype(np.int64)
    din = np.bincount(alive_dst, minlength=graph.num_vertices).astype(np.int64)
    _cascade(
        graph, alive, dout, din, int(w), strict=True, runtime=runtime,
        frontier=frontier,
    )
    return alive


@dataclass
class WStarResult:
    """Outcome of the w*-induced subgraph computation (Algorithm 3)."""

    edge_mask: np.ndarray
    w_star: int
    rounds: int
    size_after_prune: int
    size_wstar: int
    level_sizes: list[tuple[int, int]] = field(default_factory=list)
    """(w level, alive-edge count at the start of that level) per level."""


def wstar_subgraph(
    graph: DirectedGraph,
    runtime: SimRuntime | None = None,
    start_at_dmax: bool = True,
    frontier: bool = True,
) -> WStarResult:
    """Compute the w*-induced subgraph by level-by-level edge peeling.

    The outer loop of Algorithm 3: at the start of every outer iteration
    the surviving graph *is* the w-induced subgraph for w = its minimum
    edge weight, so the last non-empty snapshot is the w*-induced subgraph.
    ``start_at_dmax`` applies the paper's Remark (w* >= d_max), discarding
    all edges with weight < d_max up front.
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("w*-induced subgraph is undefined without edges")
    src, dst = graph.edge_src, graph.edge_dst
    alive = np.ones(graph.num_edges, dtype=bool)
    dout = graph.out_degrees().copy()
    din = graph.in_degrees().copy()
    rounds = 0
    if start_at_dmax:
        d_max = graph.max_degree()
        rounds += _cascade(
            graph, alive, dout, din, d_max, strict=True, runtime=runtime,
            frontier=frontier,
        )
    size_after_prune = int(np.count_nonzero(alive))

    snapshot = alive.copy()
    w_star = 0
    level_sizes: list[tuple[int, int]] = []
    while True:
        alive_ids = np.flatnonzero(alive)
        if alive_ids.size == 0:
            break
        weights = dout[src[alive_ids]] * din[dst[alive_ids]]
        if runtime is not None:
            runtime.parfor(float(alive_ids.size))  # min-weight reduction
        w_cur = int(weights.min())
        snapshot = alive.copy()
        w_star = w_cur
        level_sizes.append((w_cur, int(alive_ids.size)))
        rounds += _cascade(
            graph, alive, dout, din, w_cur, strict=False, runtime=runtime,
            frontier=frontier,
        )

    if w_star == 0:
        # Cannot happen on a non-empty simple digraph: every edge's weight
        # is at least 1, so at least one level executes.
        raise EmptyGraphError("input graph lost all edges before any level")
    return WStarResult(
        edge_mask=snapshot,
        w_star=w_star,
        rounds=rounds,
        size_after_prune=size_after_prune,
        size_wstar=int(np.count_nonzero(snapshot)),
        level_sizes=level_sizes,
    )


def winduced_decomposition(graph: DirectedGraph) -> tuple[np.ndarray, int]:
    """Label every edge with its induce-number; return ``(labels, w*)``.

    Exact serial peeling in the style of core decomposition: always remove
    a minimum-weight edge, assigning it the running maximum of the minimum
    weights seen so far (Definition 10; reproduces paper Table 3).  Uses a
    lazy-decrease binary heap, so it is intended for the moderate graph
    sizes used in tests and the safe extraction path — the scalable
    round-based engine is :func:`wstar_subgraph`.
    """
    m = graph.num_edges
    induce = np.zeros(m, dtype=np.int64)
    if m == 0:
        return induce, 0
    src, dst = graph.edge_src, graph.edge_dst
    dout = graph.out_degrees().copy()
    din = graph.in_degrees().copy()
    alive = np.ones(m, dtype=bool)
    heap: list[tuple[int, int]] = [
        (int(dout[src[e]] * din[dst[e]]), e) for e in range(m)
    ]
    heapq.heapify(heap)
    running_w = 0
    remaining = m
    while remaining:
        weight, edge = heapq.heappop(heap)
        if not alive[edge]:
            continue
        current = int(dout[src[edge]] * din[dst[edge]])
        if current != weight:
            # Stale entry: a fresher (smaller) one was pushed on decrease.
            continue
        running_w = max(running_w, current)
        induce[edge] = running_w
        alive[edge] = False
        remaining -= 1
        u, v = int(src[edge]), int(dst[edge])
        dout[u] -= 1
        din[v] -= 1
        # Push refreshed weights for every alive edge whose weight dropped.
        for slot in range(graph.out_indptr[u], graph.out_indptr[u + 1]):
            other = int(graph.out_edge_ids[slot])
            if alive[other]:
                heapq.heappush(
                    heap, (int(dout[u] * din[graph.out_indices[slot]]), other)
                )
        for slot in range(graph.in_indptr[v], graph.in_indptr[v + 1]):
            other = int(graph.in_edge_ids[slot])
            if alive[other]:
                heapq.heappush(
                    heap, (int(dout[graph.in_indices[slot]] * din[v]), other)
                )
    return induce, running_w
