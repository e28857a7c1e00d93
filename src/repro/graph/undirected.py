"""Immutable CSR representation of a simple undirected graph.

The whole library works on vertex ids ``0 .. n-1``.  Graphs are stored in
compressed sparse row (CSR) form: ``indptr`` has ``n + 1`` entries and the
neighbours of vertex ``v`` are ``indices[indptr[v]:indptr[v + 1]]``, sorted
ascending.  Each undirected edge appears twice in ``indices`` (once per
endpoint), so ``len(indices) == 2 * num_edges``.

Construction normalises the input: self-loops are dropped and parallel edges
are collapsed, matching the simple graphs used throughout the paper.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..errors import GraphError
from ..store.compact import index_dtype
from ..store.csr import csr_from_sorted_canonical, sorted_unique, unique_pairs
from ..store.fingerprint import fingerprint_arrays

__all__ = ["UndirectedGraph"]


def _edge_rows(edges: Iterable[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Validate ``edges`` as integer ``(m, 2)`` rows; return them as int64.

    Empty input of any dtype or shape is an empty edge list (``[]``
    arrives as float64).  Anything else must already be an integer
    array of pairs: casting floats would truncate them and reshaping a
    wider array would re-chunk its rows into different edges.
    """
    edge_array = np.asarray(
        list(edges) if not isinstance(edges, np.ndarray) else edges
    )
    if edge_array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if not np.issubdtype(edge_array.dtype, np.integer):
        raise GraphError(
            f"edge endpoints must be integers, got dtype {edge_array.dtype}"
        )
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError(
            f"edges must be (m, 2) rows of endpoints, got shape "
            f"{edge_array.shape}"
        )
    return edge_array.astype(np.int64, copy=False)


def _normalize_edges(n: int, edges: np.ndarray) -> np.ndarray:
    """Return unique, self-loop-free edges as (u, v) rows with u < v."""
    if edges.size == 0:
        return edges
    if edges.min() < 0 or edges.max() >= n:
        raise GraphError(
            f"edge endpoint out of range for a graph with {n} vertices"
        )
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    return unique_pairs(n, u[keep], v[keep])


class UndirectedGraph:
    """A simple undirected graph in CSR form.

    Instances are conceptually immutable; algorithms that "peel" vertices or
    edges keep their own alive-masks and degree arrays instead of mutating
    the graph.
    """

    __slots__ = ("indptr", "indices", "_num_edges", "_scratch",
                 "_fingerprint")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.ascontiguousarray(indptr)
        indices = np.ascontiguousarray(indices)
        if not np.issubdtype(indptr.dtype, np.integer):
            indptr = indptr.astype(np.int64)
        if not np.issubdtype(indices.dtype, np.integer):
            indices = indices.astype(np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise GraphError("indptr must be a 1-D array with >= 1 entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError("indptr does not describe the indices array")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if indices.size % 2 != 0:
            raise GraphError(
                "undirected CSR must contain each edge twice; got an odd "
                "number of adjacency entries"
            )
        # Auto-narrow index arrays (validated above, so the cast cannot
        # wrap): int32 halves the footprint, and the widest value any
        # index-typed buffer must hold is the last hindex-bin offset,
        # 2m + n (see repro.store.compact).
        dtype = index_dtype(indptr.size - 1, indices.size + indptr.size - 1)
        self.indptr = np.ascontiguousarray(indptr, dtype=dtype)
        self.indices = np.ascontiguousarray(indices, dtype=dtype)
        # Lazily-built, read-only scratch buffers derived from the CSR
        # arrays (heads, degree views, h-index histogram layout).  Owned
        # per instance: derived graphs always start with an empty cache.
        self._scratch: dict[str, np.ndarray] = {}
        self._fingerprint: Optional[str] = None
        self._num_edges = self.indices.size // 2

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Sequence[int]] | np.ndarray
    ) -> "UndirectedGraph":
        """Build a graph from an iterable of (u, v) pairs.

        Self-loops are dropped and duplicate edges collapsed.

        >>> g = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (1, 0)])
        >>> g.num_edges
        2
        >>> g.neighbors(1).tolist()
        [0, 2]
        """
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        canon = _normalize_edges(num_vertices, _edge_rows(edges))
        return cls._from_canonical_edges(num_vertices, canon)

    @classmethod
    def _from_canonical_edges(
        cls, num_vertices: int, canon: np.ndarray
    ) -> "UndirectedGraph":
        """Build CSR from deduplicated, lex-sorted (u < v) edge rows.

        Every call site hands over :func:`~repro.store.csr.unique_pairs`
        output, a CSR-ordered ``edges()`` slice or a monotone relabel of
        one, so the O(m) counting-sort builder applies
        (``repro.store.csr``); it verifies sortedness and raises
        :class:`~repro.errors.GraphError` otherwise.
        """
        dtype = index_dtype(num_vertices,
                            2 * canon.shape[0] + num_vertices)
        indptr, indices = csr_from_sorted_canonical(
            num_vertices, canon, dtype=dtype
        )
        return cls(indptr, indices)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "UndirectedGraph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        return cls(np.zeros(num_vertices + 1, dtype=np.int64), np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``."""
        return self._num_edges

    def _cached(self, key: str, build) -> np.ndarray:
        """Memoize a derived buffer; returned arrays are frozen read-only.

        The scratch cache mirrors the frozen-CSR contract (lint rule
        R005): cached buffers are views of graph structure, never
        per-algorithm state, and writing into one raises at runtime.
        """
        array = self._scratch.get(key)
        if array is None:
            array = build()
            array.setflags(write=False)
            self._scratch[key] = array
        return array

    def degrees(self) -> np.ndarray:
        """Return the degree of every vertex (cached, read-only)."""
        return self._cached("degrees", lambda: np.diff(self.indptr))

    def heads(self) -> np.ndarray:
        """Row id of every adjacency slot (cached, read-only).

        Equivalent to ``np.repeat(np.arange(n), degrees)`` — the other
        half of the CSR coordinate view that nearly every vectorised edge
        scan needs.  Memoized because it is as large as ``indices``.
        """
        return self._cached(
            "heads",
            lambda: np.repeat(
                np.arange(self.num_vertices, dtype=self.indptr.dtype),
                self.degrees(),
            ),
        )

    def hindex_bins(self) -> np.ndarray:
        """Histogram bin pointer for the sort-free segmented h-index kernel.

        Vertex ``v`` owns the ``degree(v) + 1`` histogram bins
        ``bin_ptr[v]:bin_ptr[v + 1]`` (one per attainable h-value), so
        ``bin_ptr = indptr + arange(n + 1)``.  Cached and read-only,
        like ``heads``.
        """
        # Offsets reach 2m + n — the bound index_dtype() narrowed for.
        return self._cached(
            "hindex_bin_ptr",
            lambda: self.indptr + np.arange(
                self.num_vertices + 1, dtype=self.indptr.dtype
            ),
        )

    def degree(self, v: int) -> int:
        """Return the degree of vertex ``v``."""
        return int(self.indptr[v + 1] - self.indptr[v])

    def max_degree(self) -> int:
        """Return the maximum degree, or 0 for an edgeless graph."""
        if self.num_vertices == 0:
            return 0
        return int(self.degrees().max(initial=0))

    def neighbors(self, v: int) -> np.ndarray:
        """Return the sorted neighbour ids of ``v`` (a CSR slice view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True iff the edge {u, v} is present."""
        nbrs = self.neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def edges(self) -> np.ndarray:
        """Return all edges as an (m, 2) array with u < v per row."""
        heads = self.heads()
        mask = heads < self.indices
        return np.stack([heads[mask], self.indices[mask]], axis=1)

    def density(self) -> float:
        """Return the paper's undirected density rho = |E| / |V|.

        Returns 0.0 for the empty graph so callers comparing candidate
        subgraphs never divide by zero.
        """
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(
        self, vertices: Iterable[int] | np.ndarray
    ) -> tuple["UndirectedGraph", np.ndarray]:
        """Return ``(subgraph, original_ids)`` induced by ``vertices``.

        Vertices are relabelled to ``0..k-1``; ``original_ids[i]`` maps the
        new id ``i`` back to its id in this graph.
        """
        keep = sorted_unique(np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices, dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_vertices):
            raise GraphError("induced vertex id out of range")
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size)
        heads = self.heads()
        mask = (new_id[heads] >= 0) & (new_id[self.indices] >= 0) & (heads < self.indices)
        # CSR order through the monotone relabel is already lex-sorted
        # and duplicate-free.
        canon = np.stack([new_id[heads[mask]], new_id[self.indices[mask]]], axis=1)
        sub = UndirectedGraph._from_canonical_edges(keep.size, canon)
        return sub, keep

    def subgraph_from_edge_mask(self, edge_mask: np.ndarray) -> "UndirectedGraph":
        """Return a graph on the same vertex set keeping masked edges only.

        ``edge_mask`` indexes the rows of :meth:`edges`.
        """
        all_edges = self.edges()
        if edge_mask.shape[0] != all_edges.shape[0]:
            raise GraphError("edge mask length must equal num_edges")
        return UndirectedGraph._from_canonical_edges(self.num_vertices, all_edges[edge_mask])

    def relabeled(self, permutation: np.ndarray) -> "UndirectedGraph":
        """Return an isomorphic graph with vertex ``v`` renamed to ``permutation[v]``."""
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.size != self.num_vertices or sorted_unique(perm).size != perm.size:
            raise GraphError("permutation must be a bijection on the vertex set")
        old = self.edges()
        return UndirectedGraph.from_edges(
            self.num_vertices, np.stack([perm[old[:, 0]], perm[old[:, 1]]], axis=1)
        )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"UndirectedGraph(n={self.num_vertices}, m={self.num_edges})"

    def fingerprint(self) -> str:
        """Stable content hash of the CSR structure (cached).

        Two graphs with identical ``indptr``/``indices`` (and dtype)
        fingerprint identically however they were built; the engine's
        result cache keys on this.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_arrays(
                "undirected", self.num_vertices, self.indptr, self.indices
            )
        return self._fingerprint

    def memory_bytes(self, include_scratch: bool = True) -> int:
        """Resident size in bytes of the CSR arrays.

        By default this includes the lazily-built scratch buffers
        (``degrees``/``heads``/``hindex_bins``) currently cached on the
        instance — they are as resident as the CSR arrays themselves.
        Pass ``include_scratch=False`` for the bare structural size.
        """
        total = int(self.indptr.nbytes + self.indices.nbytes)
        if include_scratch:
            total += sum(a.nbytes for a in self._scratch.values())
        return total
