"""The serial min-degree peel behind Charikar's 2-approximation.

:func:`min_degree_order` is the classic Batagelj–Zaversnik bin-sort peel:
O(m + n) removal of a minimum-degree vertex at every step.
:func:`densest_prefix` picks the densest suffix of any removal order in one
vectorized pass.
"""

from __future__ import annotations

import numpy as np

from .undirected import UndirectedGraph

__all__ = ["min_degree_order", "densest_prefix"]


def min_degree_order(graph: UndirectedGraph) -> np.ndarray:
    """Return the vertices in the order a min-degree peel removes them.

    Vertices start in a stable sort by degree, grouped into buckets by
    current degree.  Each step pops the first unpopped vertex; each alive
    neighbour whose degree drops swaps with the front of its bucket and
    that bucket's start moves one slot right, so the pop order (and its
    tie-breaking) is a pure function of the CSR.

    The loop runs over Python lists, and adjacency is read through a
    ``memoryview`` of ``graph.indices`` so no per-graph list of 2m ints
    is built.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    order = np.argsort(degrees, kind="stable")
    pos_array = np.empty(n, dtype=np.int64)
    pos_array[order] = np.arange(n)
    # bin_start[k]: first slot of the bucket of key k (#vertices with key < k).
    bin_start = np.zeros(int(degrees.max(initial=0)) + 1, dtype=np.int64)
    np.cumsum(np.bincount(degrees)[:-1], out=bin_start[1:])

    vert = order.tolist()
    pos = pos_array.tolist()
    key = degrees.tolist()
    bins = bin_start.tolist()
    indptr = graph.indptr.tolist()
    adjacency = memoryview(graph.indices)
    for head in range(n):
        v = vert[head]
        # Vertex u is unpopped iff pos[u] > head.  An unpopped neighbour of
        # the vertex just popped still counts that edge, so its key is >= 1.
        for u in adjacency[indptr[v]:indptr[v + 1]]:
            p = pos[u]
            if p > head:
                k = key[u]
                front = bins[k]
                if front <= head:  # the bucket's first slots are popped
                    front = head + 1
                w = vert[front]
                if w != u:
                    vert[front] = u
                    vert[p] = w
                    pos[u] = front
                    pos[w] = p
                bins[k] = front + 1
                key[u] = k - 1
    return np.array(vert, dtype=np.int64)


def densest_prefix(graph: UndirectedGraph, order: np.ndarray) -> tuple[int, float]:
    """Return ``(k, density)`` of the densest graph left after ``k`` pops.

    ``order`` is a removal order of all ``n`` vertices; ``k`` ranges over
    ``0 … n − 1``.  An edge leaves at pop ``min(rank[u], rank[v])``, so
    counting those pops over the adjacency slots (each edge twice) and
    halving the running sum gives the edges removed by every prefix.  Each
    density is the correctly rounded quotient ``edges_left / vertices_left``
    and ``argmax`` keeps the first maximum, so ``k`` and ``density`` equal
    a serial scan that updates its best on a strict ``>``.
    """
    n = graph.num_vertices
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    leave = rank[graph.indices]
    np.minimum(leave, np.repeat(rank, graph.degrees()), out=leave)
    removed = np.zeros(n, dtype=np.int64)
    np.cumsum(np.bincount(leave, minlength=n)[:-1], out=removed[1:])
    removed //= 2
    density = (graph.num_edges - removed) / (n - np.arange(n))
    k = int(np.argmax(density))
    return k, float(density[k])
