"""Incremental edge-list builders for both graph types.

The CSR graph classes are immutable; these builders collect edges (with
amortised O(1) appends into growing NumPy buffers) and produce a graph once.
They also handle string/arbitrary vertex labels by interning them to dense
integer ids, which the loaders in :mod:`repro.graph.io` rely on.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .directed import DirectedGraph
from .undirected import UndirectedGraph

__all__ = ["GraphBuilder", "DirectedGraphBuilder"]

_INITIAL_CAPACITY = 1024


class _EdgeBuffer:
    """Append-only (src, dst) buffer with geometric growth."""

    def __init__(self) -> None:
        self._src = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._dst = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0

    def append(self, u: int, v: int) -> None:
        if self._size == self._src.size:
            new_cap = self._src.size * 2
            self._src = np.resize(self._src, new_cap)
            self._dst = np.resize(self._dst, new_cap)
        self._src[self._size] = u
        self._dst[self._size] = v
        self._size += 1

    def view(self) -> np.ndarray:
        return np.stack([self._src[: self._size], self._dst[: self._size]], axis=1)


class _LabelInterner:
    """Maps arbitrary hashable labels to dense ids 0..n-1.

    Labels are compared by dict semantics (``hash`` + ``==``), never by
    textual rendering: the int ``1`` and the string ``"1"`` are distinct
    vertices, while ``True`` and ``1`` (equal and hash-equal in Python)
    intern to one vertex whose label is whichever token appeared first.
    The text readers never mix types — every parsed token is interned as
    ``str`` — so this only matters for programmatic ``add_edge`` calls.
    """

    def __init__(self) -> None:
        self._ids: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []

    def intern(self, label: Hashable) -> int:
        existing = self._ids.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._ids[label] = new_id
        self._labels.append(label)
        return new_id

    @property
    def labels(self) -> list[Hashable]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)


class GraphBuilder:
    """Accumulates undirected edges and produces an :class:`UndirectedGraph`.

    >>> b = GraphBuilder()
    >>> b.add_edge("a", "b").add_edge("b", "c")  # doctest: +ELLIPSIS
    <repro.graph.builder.GraphBuilder object at ...>
    >>> g, labels = b.build_with_labels()
    >>> g.num_edges, labels
    (2, ['a', 'b', 'c'])
    """

    def __init__(self) -> None:
        self._buffer = _EdgeBuffer()
        self._interner = _LabelInterner()

    def add_edge(self, u: Hashable, v: Hashable) -> "GraphBuilder":
        """Add an undirected edge between two (possibly labelled) vertices."""
        self._buffer.append(self._interner.intern(u), self._interner.intern(v))
        return self

    def build(self) -> UndirectedGraph:
        """Return the accumulated graph."""
        return UndirectedGraph.from_edges(len(self._interner), self._buffer.view())

    def build_with_labels(self) -> tuple[UndirectedGraph, list[Hashable]]:
        """Return ``(graph, labels)`` where labels[i] is vertex i's label."""
        return self.build(), self._interner.labels


class DirectedGraphBuilder:
    """Accumulates directed edges and produces a :class:`DirectedGraph`."""

    def __init__(self) -> None:
        self._buffer = _EdgeBuffer()
        self._interner = _LabelInterner()

    def add_edge(self, u: Hashable, v: Hashable) -> "DirectedGraphBuilder":
        """Add a directed edge u -> v between (possibly labelled) vertices."""
        self._buffer.append(self._interner.intern(u), self._interner.intern(v))
        return self

    def build(self) -> DirectedGraph:
        """Return the accumulated graph."""
        return DirectedGraph.from_edges(len(self._interner), self._buffer.view())

    def build_with_labels(self) -> tuple[DirectedGraph, list[Hashable]]:
        """Return ``(graph, labels)`` where labels[i] is vertex i's label."""
        return self.build(), self._interner.labels
