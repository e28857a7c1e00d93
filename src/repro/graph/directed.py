"""Immutable dual-CSR representation of a simple directed graph.

Stores both an out-adjacency CSR (``out_indptr`` / ``out_indices``) and an
in-adjacency CSR (``in_indptr`` / ``in_indices``) so that both peeling
directions used by the DDS algorithms are O(degree).

Additionally each out-CSR slot carries the *edge id* of the corresponding
edge (``out_edge_ids``), and likewise for the in-CSR, so edge-indexed state
(alive masks, induce-numbers, weights) can be shared across both views.
Edge ids enumerate the rows of :meth:`DirectedGraph.edges`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import GraphError
from ..store.compact import index_dtype
from ..store.csr import counting_sort_csr, sorted_unique, unique_pairs
from ..store.fingerprint import fingerprint_arrays
from .undirected import UndirectedGraph, _edge_rows

__all__ = ["DirectedGraph"]


class DirectedGraph:
    """A simple directed graph with out- and in-CSR plus edge ids."""

    __slots__ = (
        "out_indptr",
        "out_indices",
        "out_edge_ids",
        "in_indptr",
        "in_indices",
        "in_edge_ids",
        "_edge_src",
        "_edge_dst",
        "_scratch",
        "_fingerprint",
    )

    def __init__(self, num_vertices: int, edge_src: np.ndarray, edge_dst: np.ndarray):
        if num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        edge_src = np.ascontiguousarray(edge_src, dtype=np.int64)
        edge_dst = np.ascontiguousarray(edge_dst, dtype=np.int64)
        if edge_src.shape != edge_dst.shape or edge_src.ndim != 1:
            raise GraphError("edge_src and edge_dst must be equal-length 1-D arrays")
        if edge_src.size and (
            min(edge_src.min(), edge_dst.min()) < 0
            or max(edge_src.max(), edge_dst.max()) >= num_vertices
        ):
            raise GraphError(
                f"edge endpoint out of range for a graph with {num_vertices} vertices"
            )
        n, m = num_vertices, edge_src.size
        # Auto-narrow every index-typed array (vertex ids, CSR offsets,
        # edge ids are all bounded by max(n, m); see repro.store.compact).
        dtype = index_dtype(n, max(n, m))
        self._edge_src = np.ascontiguousarray(edge_src, dtype=dtype)
        self._edge_dst = np.ascontiguousarray(edge_dst, dtype=dtype)

        # One stable radix pass per direction (repro.store.csr) instead
        # of the old two-key lexsorts; orderings are identical.
        self.out_indptr, self.out_indices, out_order = counting_sort_csr(
            n, edge_src, edge_dst, dtype=dtype
        )
        self.out_edge_ids = out_order.astype(dtype, copy=False)
        self.in_indptr, self.in_indices, in_order = counting_sort_csr(
            n, edge_dst, edge_src, dtype=dtype
        )
        self.in_edge_ids = in_order.astype(dtype, copy=False)
        # Lazily-built, read-only scratch buffers (degree views); owned
        # per instance so derived graphs always start with a fresh cache.
        self._scratch: dict[str, np.ndarray] = {}
        self._fingerprint: Optional[str] = None

    def _cached(self, key: str, build) -> np.ndarray:
        """Memoize a derived buffer; returned arrays are frozen read-only."""
        array = self._scratch.get(key)
        if array is None:
            array = build()
            array.setflags(write=False)
            self._scratch[key] = array
        return array

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[Sequence[int]] | np.ndarray
    ) -> "DirectedGraph":
        """Build a graph from (u, v) pairs meaning an edge u -> v.

        Self-loops are dropped and duplicate edges collapsed, matching the
        simple directed graphs used in the paper.

        >>> d = DirectedGraph.from_edges(3, [(0, 1), (0, 1), (1, 2), (2, 2)])
        >>> d.num_edges
        2
        """
        edge_array = _edge_rows(edges)
        if edge_array.size:
            if edge_array.min() < 0 or edge_array.max() >= num_vertices:
                raise GraphError(
                    f"edge endpoint out of range for a graph with {num_vertices} vertices"
                )
            keep = edge_array[:, 0] != edge_array[:, 1]
            edge_array = unique_pairs(
                num_vertices, edge_array[keep, 0], edge_array[keep, 1]
            )
        return cls(num_vertices, edge_array[:, 0], edge_array[:, 1])

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "DirectedGraph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        zero = np.empty(0, dtype=np.int64)
        return cls(num_vertices, zero, zero)

    @classmethod
    def _from_csr_arrays(
        cls,
        num_vertices: int,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        out_edge_ids: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        in_edge_ids: np.ndarray,
    ) -> "DirectedGraph":
        """Adopt pre-built dual-CSR arrays (snapshot loads).

        Skips the per-direction sorts — the snapshot stores the exact
        arrays a fresh build would produce — but still checks the cheap
        structural invariants so a corrupted file cannot produce a graph
        with inconsistent views.
        """
        m = edge_src.size
        if (
            out_indptr.size != num_vertices + 1
            or in_indptr.size != num_vertices + 1
            or edge_dst.size != m
            or out_indices.size != m
            or in_indices.size != m
            or out_edge_ids.size != m
            or in_edge_ids.size != m
            or (m > 0 and (out_indptr[-1] != m or in_indptr[-1] != m))
        ):
            raise GraphError("inconsistent dual-CSR arrays")
        graph = cls.__new__(cls)
        graph._edge_src = np.ascontiguousarray(edge_src)
        graph._edge_dst = np.ascontiguousarray(edge_dst)
        graph.out_indptr = np.ascontiguousarray(out_indptr)
        graph.out_indices = np.ascontiguousarray(out_indices)
        graph.out_edge_ids = np.ascontiguousarray(out_edge_ids)
        graph.in_indptr = np.ascontiguousarray(in_indptr)
        graph.in_indices = np.ascontiguousarray(in_indices)
        graph.in_edge_ids = np.ascontiguousarray(in_edge_ids)
        graph._scratch = {}
        graph._fingerprint = None
        return graph

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.out_indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return self._edge_src.size

    def edges(self) -> np.ndarray:
        """Return all edges as an (m, 2) array in edge-id order."""
        return np.stack([self._edge_src, self._edge_dst], axis=1)

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield (u, v) tuples in edge-id order.

        Debugging convenience only: one Python tuple per edge. Hot paths
        should use the vectorised :meth:`edges` array instead.
        """
        for u, v in zip(self._edge_src, self._edge_dst):
            yield int(u), int(v)

    @property
    def edge_src(self) -> np.ndarray:
        """Source vertex of every edge, indexed by edge id."""
        return self._edge_src

    @property
    def edge_dst(self) -> np.ndarray:
        """Destination vertex of every edge, indexed by edge id."""
        return self._edge_dst

    def out_degrees(self) -> np.ndarray:
        """Return all out-degrees (cached, read-only)."""
        return self._cached("out_degrees", lambda: np.diff(self.out_indptr))

    def in_degrees(self) -> np.ndarray:
        """Return all in-degrees (cached, read-only)."""
        return self._cached("in_degrees", lambda: np.diff(self.in_indptr))

    def out_degree(self, v: int) -> int:
        """Return the out-degree of vertex ``v``."""
        return int(self.out_indptr[v + 1] - self.out_indptr[v])

    def in_degree(self, v: int) -> int:
        """Return the in-degree of vertex ``v``."""
        return int(self.in_indptr[v + 1] - self.in_indptr[v])

    def max_out_degree(self) -> int:
        """Return the maximum out-degree (0 when edgeless)."""
        return int(self.out_degrees().max(initial=0)) if self.num_vertices else 0

    def max_in_degree(self) -> int:
        """Return the maximum in-degree (0 when edgeless)."""
        return int(self.in_degrees().max(initial=0)) if self.num_vertices else 0

    def max_degree(self) -> int:
        """Return d_max = max over vertices of max(out-degree, in-degree)."""
        return max(self.max_out_degree(), self.max_in_degree())

    def out_neighbors(self, v: int) -> np.ndarray:
        """Return the sorted out-neighbour ids of ``v``."""
        return self.out_indices[self.out_indptr[v]:self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Return the sorted in-neighbour ids of ``v``."""
        return self.in_indices[self.in_indptr[v]:self.in_indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Return True iff the edge u -> v is present."""
        nbrs = self.out_neighbors(u)
        pos = np.searchsorted(nbrs, v)
        return bool(pos < nbrs.size and nbrs[pos] == v)

    def density(self, s: Iterable[int], t: Iterable[int]) -> float:
        """Return rho(S, T) = |E(S, T)| / sqrt(|S| |T|) (Definition 3).

        Returns 0.0 when either set is empty.
        """
        s_set = np.zeros(self.num_vertices, dtype=bool)
        t_set = np.zeros(self.num_vertices, dtype=bool)
        s_ids = np.asarray(list(s) if not isinstance(s, np.ndarray) else s, dtype=np.int64)
        t_ids = np.asarray(list(t) if not isinstance(t, np.ndarray) else t, dtype=np.int64)
        if s_ids.size == 0 or t_ids.size == 0:
            return 0.0
        s_set[s_ids] = True
        t_set[t_ids] = True
        count = int(np.count_nonzero(s_set[self._edge_src] & t_set[self._edge_dst]))
        return count / float(np.sqrt(np.count_nonzero(s_set) * np.count_nonzero(t_set)))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph_from_edge_mask(self, edge_mask: np.ndarray) -> "DirectedGraph":
        """Return a graph on the same vertex set keeping masked edge ids."""
        if edge_mask.shape[0] != self.num_edges:
            raise GraphError("edge mask length must equal num_edges")
        return DirectedGraph(
            self.num_vertices, self._edge_src[edge_mask], self._edge_dst[edge_mask]
        )

    def induced_subgraph(
        self, vertices: Iterable[int] | np.ndarray
    ) -> tuple["DirectedGraph", np.ndarray]:
        """Return ``(subgraph, original_ids)`` induced by ``vertices``."""
        keep = sorted_unique(
            np.asarray(list(vertices) if not isinstance(vertices, np.ndarray) else vertices, dtype=np.int64)
        )
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_vertices):
            raise GraphError("induced vertex id out of range")
        new_id = np.full(self.num_vertices, -1, dtype=np.int64)
        new_id[keep] = np.arange(keep.size)
        mask = (new_id[self._edge_src] >= 0) & (new_id[self._edge_dst] >= 0)
        return (
            DirectedGraph(keep.size, new_id[self._edge_src[mask]], new_id[self._edge_dst[mask]]),
            keep,
        )

    def st_induced_subgraph(
        self, s: Iterable[int], t: Iterable[int]
    ) -> "DirectedGraph":
        """Return the (S, T)-induced subgraph on the original vertex ids.

        Keeps exactly the edges from S to T (Section III-A).
        """
        s_set = np.zeros(self.num_vertices, dtype=bool)
        t_set = np.zeros(self.num_vertices, dtype=bool)
        s_ids = np.asarray(list(s) if not isinstance(s, np.ndarray) else s, dtype=np.int64)
        t_ids = np.asarray(list(t) if not isinstance(t, np.ndarray) else t, dtype=np.int64)
        if s_ids.size:
            s_set[s_ids] = True
        if t_ids.size:
            t_set[t_ids] = True
        mask = s_set[self._edge_src] & t_set[self._edge_dst]
        return self.subgraph_from_edge_mask(mask)

    def reversed(self) -> "DirectedGraph":
        """Return the graph with every edge direction flipped."""
        return DirectedGraph(self.num_vertices, self._edge_dst, self._edge_src)

    def to_undirected(self) -> "UndirectedGraph":
        """Return the underlying undirected graph (edge directions erased)."""
        return UndirectedGraph.from_edges(self.num_vertices, self.edges())

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        if self.num_vertices != other.num_vertices:
            return False
        mine = self.edges()
        theirs = other.edges()
        if mine.shape != theirs.shape:
            return False
        order_a = np.lexsort((mine[:, 1], mine[:, 0]))
        order_b = np.lexsort((theirs[:, 1], theirs[:, 0]))
        return bool(np.array_equal(mine[order_a], theirs[order_b]))

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.num_vertices}, m={self.num_edges})"

    def fingerprint(self) -> str:
        """Stable content hash of the graph structure (cached).

        Hashes the edge-id-ordered arc arrays, from which both CSR
        views are a deterministic function; the engine's result cache
        keys on this.
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_arrays(
                "directed", self.num_vertices, self._edge_src, self._edge_dst
            )
        return self._fingerprint

    def memory_bytes(self, include_scratch: bool = True) -> int:
        """Resident size in bytes of the dual-CSR arrays.

        By default this includes the lazily-built scratch buffers
        (``out_degrees``/``in_degrees``) currently cached on the
        instance. Pass ``include_scratch=False`` for the bare size.
        """
        arrays = (
            self.out_indptr,
            self.out_indices,
            self.out_edge_ids,
            self.in_indptr,
            self.in_indices,
            self.in_edge_ids,
            self._edge_src,
            self._edge_dst,
        )
        total = int(sum(a.nbytes for a in arrays))
        if include_scratch:
            total += sum(a.nbytes for a in self._scratch.values())
        return total
