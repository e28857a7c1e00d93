"""[x, y]-core peeling primitives (paper Definition 7).

An (S, T)-induced subgraph H is an [x, y]-core when every u in S has
d^+_H(u) >= x, every v in T has d^-_H(v) >= y, and H is maximal.  The
maximal core is computed here by synchronous edge peeling: an alive edge
(u, v) dies when its source's alive out-degree falls below x or its
destination's alive in-degree falls below y; killing a vertex's last
qualifying edge cascades.  Each peeling round is one parallel iteration.

Both PWC (which extracts the [x*, y*]-core from the w*-induced subgraph)
and the PXY baseline (which enumerates O(sqrt(m)) cn-pairs) build on these
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.directed import DirectedGraph
from ..runtime.simruntime import SimRuntime

__all__ = ["XYCore", "xy_core"]


@dataclass
class XYCore:
    """Result of an [x, y]-core peel.

    ``edge_mask`` marks the surviving edges (indexed by edge id of the
    *original* graph); ``s``/``t`` are the vertex sets; empty arrays mean
    the core does not exist.
    """

    x: int
    y: int
    s: np.ndarray
    t: np.ndarray
    edge_mask: np.ndarray
    rounds: int

    @property
    def exists(self) -> bool:
        """True iff the [x, y]-core is non-empty."""
        return bool(self.s.size and self.t.size)

    @property
    def num_edges(self) -> int:
        """Number of edges in the core."""
        return int(np.count_nonzero(self.edge_mask))

    def density(self) -> float:
        """rho(S, T) of the core (0.0 when it does not exist)."""
        if not self.exists:
            return 0.0
        return self.num_edges / float(np.sqrt(self.s.size * self.t.size))


def _alive_degrees(
    graph: DirectedGraph, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    src = graph.edge_src[alive]
    dst = graph.edge_dst[alive]
    dout = np.bincount(src, minlength=graph.num_vertices)
    din = np.bincount(dst, minlength=graph.num_vertices)
    return dout.astype(np.int64), din.astype(np.int64)


def xy_core(
    graph: DirectedGraph,
    x: int,
    y: int,
    edge_mask: np.ndarray | None = None,
    runtime: SimRuntime | None = None,
) -> XYCore:
    """Compute the maximal [x, y]-core (optionally within an edge subset).

    ``edge_mask`` restricts peeling to a subgraph (PWC passes the
    w*-induced subgraph here, which is sound because the [x*, y*]-core is
    contained in it — paper Lemma 4 with Theorem 2).  When a ``runtime`` is
    given, each peeling round is charged as one parallel loop over the
    surviving edges.
    """
    if x < 1 or y < 1:
        raise ValueError("x and y must be >= 1")
    alive = (
        np.ones(graph.num_edges, dtype=bool)
        if edge_mask is None
        else edge_mask.copy()
    )
    src, dst = graph.edge_src, graph.edge_dst
    dout, din = _alive_degrees(graph, alive)
    rounds = 0
    while True:
        alive_ids = np.flatnonzero(alive)
        if alive_ids.size == 0:
            break
        bad = (dout[src[alive_ids]] < x) | (din[dst[alive_ids]] < y)
        if runtime is not None:
            runtime.parfor(
                float(alive_ids.size), atomic_ops=int(np.count_nonzero(bad))
            )
        rounds += 1
        if not bad.any():
            break
        dead_ids = alive_ids[bad]
        alive[dead_ids] = False
        np.subtract.at(dout, src[dead_ids], 1)
        np.subtract.at(din, dst[dead_ids], 1)
    s = np.flatnonzero(dout > 0)
    t = np.flatnonzero(din > 0)
    return XYCore(x=x, y=y, s=s, t=t, edge_mask=alive, rounds=rounds)

