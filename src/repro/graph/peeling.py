"""The bucket queue behind the serial peeling algorithms.

:class:`MinDegreeBucketQueue` is the classic Batagelj–Zaversnik bin-sort
structure giving O(m) full core decomposition and O(m + n) Charikar peeling.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError

__all__ = ["MinDegreeBucketQueue"]


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
