"""Shard-local kernel sweeps: existing kernels over an indptr offset.

A shard of a :class:`~repro.store.shard.ShardedGraph` is an ordinary CSR
slice whose row ``r`` is global vertex ``vertex_offset + r`` — the local
``indptr`` is rebased to the shard, while ``indices`` keeps global ids.
That asymmetry is exactly what these helpers absorb, so the *same*
backend primitives that power the monolithic sweeps
(:func:`repro.kernels.segments.segment_h_index` via ``get_backend()``)
run unchanged per shard:

* :func:`shard_sweep_values` — the shard-local analogue of
  :func:`repro.kernels.frontier.hindex_sweep_values`: h-index
  recomputation for all (or a subset of) the shard's rows against a
  *global* ``h`` array, since neighbour ids may live on other shards.
* :func:`shard_induced_edge_count` — the shard's contribution to an
  induced edge count under a global membership mask, de-duplicated with
  the same ``head < tail`` convention as the monolithic kernel.

Waking neighbours across shard boundaries needs no shard kernel of its
own: :func:`repro.kernels.frontier.lower_neighbour_floor` takes the same
``vertex_offset``.

Bit-identity with the monolithic kernels is pinned by the shard
equivalence suites; per-vertex values depend only on (degrees, neighbour
h-values), both of which shards preserve exactly.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from .segments import concat_ranges

__all__ = [
    "shard_sweep_values",
    "shard_induced_edge_count",
]


def shard_sweep_values(
    indptr: np.ndarray,
    indices: np.ndarray,
    h: np.ndarray,
    vertices: np.ndarray | None = None,
    vertex_offset: int = 0,
) -> np.ndarray:
    """Recomputed h-index values of a shard's rows against global ``h``.

    ``vertices=None`` recomputes every row of the shard (the result
    aligns with rows ``0..len(indptr)-2``, i.e. global vertices
    ``vertex_offset ..``); a global-id array restricts the recomputation
    to those rows with the result aligned to ``vertices``.  Neighbour
    values are read straight from the global ``h``, which is what makes
    the per-shard sweep bit-identical to the monolithic one — the
    h-index of a vertex depends only on its neighbours' current values,
    wherever those neighbours are stored.  Returns ``int64``.
    """
    backend = get_backend()
    if vertices is None:
        seg_ptr = np.asarray(indptr, dtype=np.int64)
        return backend.segment_h_index(seg_ptr, h[indices])
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    rows = vertices - vertex_offset
    indptr64 = np.asarray(indptr, dtype=np.int64)
    lengths = indptr64[rows + 1] - indptr64[rows]
    slots = concat_ranges(indptr64[rows], lengths)
    seg_ptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=seg_ptr[1:])
    return backend.segment_h_index(seg_ptr, h[indices[slots]])


def shard_induced_edge_count(
    indptr: np.ndarray,
    indices: np.ndarray,
    member: np.ndarray,
    vertex_offset: int = 0,
) -> int:
    """The shard's edges with both endpoints inside a global mask.

    Counts adjacency slots whose (global) head and tail are both set in
    ``member`` and with ``head < tail`` — each undirected edge is stored
    twice across the whole sharded graph (once per endpoint, possibly on
    different shards), so the strict inequality counts it exactly once
    globally, matching
    :func:`repro.kernels.density.induced_edge_count`.
    """
    indptr64 = np.asarray(indptr, dtype=np.int64)
    num_rows = indptr64.size - 1
    if num_rows <= 0 or indices.size == 0:
        return 0
    heads = np.repeat(
        np.arange(vertex_offset, vertex_offset + num_rows, dtype=np.int64),
        np.diff(indptr64),
    )
    inside = member[heads] & member[indices] & (heads < indices)
    return int(inside.sum())
