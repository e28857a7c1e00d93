"""Reference implementations of the serial peels, kept for equivalence tests.

``MinDegreeBucketQueue`` is the NumPy-backed Batagelj–Zaversnik bucket
queue the library's ``charikar`` solver ran on before its peel moved to
:func:`repro.graph.peeling.min_degree_order`; ``reference_charikar`` is that
solver's loop over it, and also returns the pop order.  ``reference_load_aware_peel`` is Greedy++'s
NumPy-indexed load-aware peel.  The library versions must return the same
bits as these.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import GraphError
from repro.graph import UndirectedGraph


class MinDegreeBucketQueue:
    """Bin-sorted vertex queue keyed by (decrease-only) degree.

    Vertices live in an array sorted by current key; ``pop_min`` removes a
    vertex of globally minimum key, ``decrease_key`` moves a vertex one
    bucket down in O(1).  This is the engine behind the O(m) core
    decomposition of Batagelj & Zaversnik used by several baselines.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and keys.min() < 0:
            raise GraphError("bucket queue keys must be non-negative")
        n = keys.size
        self._key = keys.copy()
        order = np.argsort(keys, kind="stable")
        self._vert = order.astype(np.int64)          # vertices sorted by key
        self._pos = np.empty(n, dtype=np.int64)      # position of v in _vert
        self._pos[order] = np.arange(n)
        max_key = int(keys.max(initial=0))
        counts = np.bincount(keys, minlength=max_key + 2)
        self._bin_start = np.zeros(max_key + 2, dtype=np.int64)
        np.cumsum(counts[:-1], out=self._bin_start[1:])
        self._head = 0                               # first not-yet-popped slot

    def __len__(self) -> int:
        return self._vert.size - self._head

    def key(self, v: int) -> int:
        """Return the current key of ``v``."""
        return int(self._key[v])

    def pop_min(self) -> tuple[int, int]:
        """Remove and return ``(vertex, key)`` with the minimum key."""
        if self._head >= self._vert.size:
            raise GraphError("pop from an empty bucket queue")
        v = int(self._vert[self._head])
        key = int(self._key[v])
        self._head += 1
        return v, key

    def peek_min_key(self) -> int:
        """Return the minimum key without popping."""
        if self._head >= self._vert.size:
            raise GraphError("peek on an empty bucket queue")
        return int(self._key[self._vert[self._head]])

    def decrease_key(self, v: int) -> None:
        """Decrease the key of ``v`` by one (no-op if already popped/zero)."""
        pos = self._pos[v]
        if pos < self._head:
            return  # already removed from the queue
        key = self._key[v]
        if key == 0:
            return
        bucket_front = max(int(self._bin_start[key]), self._head)
        front_vertex = int(self._vert[bucket_front])
        if front_vertex != v:
            # Swap v with the first vertex of its bucket.
            self._vert[bucket_front], self._vert[pos] = v, front_vertex
            self._pos[v], self._pos[front_vertex] = bucket_front, pos
        self._bin_start[key] = bucket_front + 1
        self._key[v] = key - 1


def reference_charikar(
    graph: UndirectedGraph,
) -> tuple[list[int], np.ndarray, float, int]:
    """Charikar's peel over the bucket queue.

    Returns ``(removal order, vertices, density, iterations)``.
    """
    n = graph.num_vertices
    queue = MinDegreeBucketQueue(graph.degrees())
    alive = np.ones(n, dtype=bool)
    edges_left = graph.num_edges
    removal_order = np.empty(n, dtype=np.int64)

    best_density = edges_left / n
    best_prefix = 0  # number of removals already performed at the best point
    for step in range(n):
        v, _ = queue.pop_min()
        removal_order[step] = v
        alive[v] = False
        for u in graph.neighbors(v):
            if alive[u]:
                queue.decrease_key(u)
                edges_left -= 1
        vertices_left = n - step - 1
        if vertices_left > 0:
            density = edges_left / vertices_left
            if density > best_density:
                best_density = density
                best_prefix = step + 1

    vertices = np.sort(removal_order[best_prefix:])
    return removal_order.tolist(), vertices, best_density, n


def reference_load_aware_peel(
    graph: UndirectedGraph, loads: np.ndarray
) -> tuple[np.ndarray, float, np.ndarray]:
    """One peel ordered by load + degree; returns (best set, density, loads)."""
    n = graph.num_vertices
    degree = graph.degrees().astype(np.int64)
    alive = np.ones(n, dtype=bool)
    edges_left = graph.num_edges
    # Lazy-deletion heap keyed by load + current degree.
    heap = [(float(loads[v] + degree[v]), v) for v in range(n)]
    heapq.heapify(heap)
    removal_order = np.empty(n, dtype=np.int64)
    new_loads = loads.copy()
    best_density = edges_left / n
    best_prefix = 0
    step = 0
    while heap:
        key, v = heapq.heappop(heap)
        if not alive[v] or key != float(loads[v] + degree[v]):
            continue
        alive[v] = False
        new_loads[v] = loads[v] + degree[v]
        removal_order[step] = v
        for u in graph.neighbors(v):
            if alive[u]:
                degree[u] -= 1
                edges_left -= 1
                heapq.heappush(heap, (float(loads[u] + degree[u]), u))
        step += 1
        vertices_left = n - step
        if vertices_left > 0:
            density = edges_left / vertices_left
            if density > best_density:
                best_density = density
                best_prefix = step
    return np.sort(removal_order[best_prefix:]), best_density, new_loads
