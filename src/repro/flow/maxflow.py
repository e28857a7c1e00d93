"""Dinic's maximum-flow algorithm on an explicit residual network.

This is the substrate behind the *exact* densest-subgraph solvers
(Goldberg's construction for UDS, the project-selection construction for
DDS).  The exact solvers are only tractable on small graphs — which is
precisely the paper's point and the reason it builds 2-approximations — so
this implementation favours clarity over constant-factor tuning while still
using the standard level-graph + current-arc optimisations.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..errors import AlgorithmError

__all__ = ["FlowNetwork"]

_EPS = 1e-11


class FlowNetwork:
    """A capacitated directed network supporting max-flow / min-cut queries.

    Arcs are stored in the classic paired-residual layout: arc ``2k`` is the
    forward arc of the k-th added edge and arc ``2k ^ 1`` its residual twin.

    >>> net = FlowNetwork(4)
    >>> _ = net.add_edge(0, 1, 3.0); _ = net.add_edge(1, 2, 2.0)
    >>> _ = net.add_edge(0, 2, 1.0); _ = net.add_edge(2, 3, 4.0)
    >>> net.max_flow(0, 3)
    3.0
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 0:
            raise AlgorithmError("num_nodes must be non-negative")
        self.num_nodes = num_nodes
        self._head: list[list[int]] = [[] for _ in range(num_nodes)]
        self._to: list[int] = []
        self._cap: list[float] = []
        self._flow_value: float | None = None

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add arc u -> v with the given capacity; return its arc id."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise AlgorithmError("arc endpoint out of range")
        if capacity < 0:
            raise AlgorithmError("capacity must be non-negative")
        arc_id = len(self._to)
        self._to.append(v)
        self._cap.append(float(capacity))
        self._head[u].append(arc_id)
        self._to.append(u)
        self._cap.append(0.0)
        self._head[v].append(arc_id + 1)
        self._flow_value = None
        return arc_id

    def add_edges(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        capacity: float | np.ndarray,
    ) -> np.ndarray:
        """Bulk-add arcs ``src[i] -> dst[i]``; return the forward arc ids.

        Validation and the paired-residual arc layout are computed
        array-at-a-time; equivalent to calling :meth:`add_edge` per arc
        (a scalar ``capacity`` broadcasts over all arcs).
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.size != dst.size:
            raise AlgorithmError("src and dst must have equal length")
        if src.size == 0:
            return np.empty(0, dtype=np.int64)
        caps = np.broadcast_to(
            np.asarray(capacity, dtype=np.float64), src.shape
        )
        if (
            int(min(src.min(), dst.min())) < 0
            or int(max(src.max(), dst.max())) >= self.num_nodes
        ):
            raise AlgorithmError("arc endpoint out of range")
        if float(caps.min()) < 0:
            raise AlgorithmError("capacity must be non-negative")
        base = len(self._to)
        to_pairs = np.empty(2 * src.size, dtype=np.int64)
        to_pairs[0::2] = dst
        to_pairs[1::2] = src
        cap_pairs = np.zeros(2 * src.size, dtype=np.float64)
        cap_pairs[0::2] = caps
        self._to.extend(to_pairs.tolist())
        self._cap.extend(cap_pairs.tolist())
        arc_ids = base + 2 * np.arange(src.size, dtype=np.int64)
        for u, arc in zip(src.tolist(), arc_ids.tolist()):
            self._head[u].append(arc)
        for v, arc in zip(dst.tolist(), (arc_ids + 1).tolist()):
            self._head[v].append(arc)
        self._flow_value = None
        return arc_ids

    # ------------------------------------------------------------------
    # Dinic
    # ------------------------------------------------------------------
    def _bfs_levels(self, source: int, sink: int) -> np.ndarray | None:
        level = np.full(self.num_nodes, -1, dtype=np.int64)
        level[source] = 0
        queue = deque([source])
        cap = self._cap
        to = self._to
        while queue:
            u = queue.popleft()
            for arc in self._head[u]:
                v = to[arc]
                if cap[arc] > _EPS and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] >= 0 else None

    def _blocking_flow(self, source: int, sink: int, level: np.ndarray) -> float:
        cap = self._cap
        to = self._to
        head = self._head
        next_arc = [0] * self.num_nodes
        total = 0.0

        # Iterative DFS carrying (node, arc-into-node) path state.
        path_arcs: list[int] = []
        node = source
        while True:
            if node == sink:
                pushed = min(cap[a] for a in path_arcs)
                for a in path_arcs:
                    cap[a] -= pushed
                    cap[a ^ 1] += pushed
                total += pushed
                # Retreat to the first saturated arc on the path.
                retreat_to = 0
                for i, a in enumerate(path_arcs):
                    if cap[a] <= _EPS:
                        retreat_to = i
                        break
                path_arcs = path_arcs[:retreat_to]
                node = source if not path_arcs else to[path_arcs[-1]]
                continue
            advanced = False
            while next_arc[node] < len(head[node]):
                arc = head[node][next_arc[node]]
                v = to[arc]
                if cap[arc] > _EPS and level[v] == level[node] + 1:
                    path_arcs.append(arc)
                    node = v
                    advanced = True
                    break
                next_arc[node] += 1
            if advanced:
                continue
            # Dead end: remove the node from the level graph and backtrack.
            level[node] = -1
            if not path_arcs:
                break
            last = path_arcs.pop()
            node = to[last ^ 1]
            next_arc[node] += 1
        return total

    def max_flow(self, source: int, sink: int) -> float:
        """Compute the maximum s-t flow value (Dinic's algorithm)."""
        if source == sink:
            raise AlgorithmError("source and sink must differ")
        total = 0.0
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                break
            total += self._blocking_flow(source, sink, level)
        self._flow_value = total
        return total

    # ------------------------------------------------------------------
    # Cut extraction
    # ------------------------------------------------------------------
    def min_cut_source_side(self, source: int) -> np.ndarray:
        """Return nodes reachable from ``source`` in the residual graph.

        Valid after :meth:`max_flow`; the returned set (which includes the
        source) is the source side of a minimum cut.
        """
        if self._flow_value is None:
            raise AlgorithmError("min_cut_source_side requires max_flow first")
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[source] = True
        queue = deque([source])
        cap = self._cap
        to = self._to
        while queue:
            u = queue.popleft()
            for arc in self._head[u]:
                v = to[arc]
                if cap[arc] > _EPS and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return np.flatnonzero(seen)
