"""Single-threaded NumPy reference backend (the default).

This module owns the *raw* vectorised formulations that used to live
inline in :mod:`repro.kernels.segments` and
:mod:`repro.kernels.density`; the kernel modules now dispatch through
:func:`repro.backends.get_backend` and every other backend is defined as
"bit-identical to this one".  The functions are plain module-level
callables (not methods) so the multiproc backend's range tasks and its
small-input inline fallback can reuse them directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import ArrayBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.undirected import UndirectedGraph

__all__ = [
    "NumpyBackend",
    "segment_h_index_numpy",
    "sweep_values_numpy",
    "induced_edge_count_numpy",
]


def segment_h_index_numpy(
    seg_ptr: np.ndarray,
    values: np.ndarray,
    seg_rows: np.ndarray | None = None,
    bins: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Sort-free segmented h-index: clipped bincount + segment suffix sums.

    See :func:`repro.kernels.segments.segment_h_index` for the public
    contract and the algorithm walkthrough; this is the implementation.
    """
    seg_ptr = np.asarray(seg_ptr)
    if not np.issubdtype(seg_ptr.dtype, np.integer):
        seg_ptr = seg_ptr.astype(np.int64)
    n = seg_ptr.size - 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    lens = np.diff(seg_ptr)
    if seg_rows is None:
        seg_rows = np.repeat(np.arange(n, dtype=seg_ptr.dtype), lens)
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        values = values.astype(np.int64)
    # Dtype-preserving: int32-narrowed graphs pass int32 seg_ptr/heads/
    # bins and the histogram keys stay int32 — no per-sweep upcast copy.
    clipped = np.minimum(values, lens[seg_rows])
    if bins is None:
        bin_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens.astype(np.int64) + 1, out=bin_ptr[1:])
        bin_rows = np.repeat(np.arange(n, dtype=np.int64), lens + 1)
    else:
        bin_ptr, bin_rows = bins
    total_bins = int(bin_ptr[-1])
    hist = np.bincount(bin_ptr[seg_rows] + clipped, minlength=total_bins)
    csum = np.cumsum(hist)
    positions = np.arange(total_bins, dtype=np.int64)
    rank = positions - bin_ptr[bin_rows]
    # count_ge at the bin of rank k (k >= 1) is the segment-suffix sum
    # hist[k..d], i.e. csum at the segment's last bin minus csum just
    # before this bin.  Rank-0 bins index csum[-1] harmlessly: they are
    # masked out below.
    seg_last = csum[bin_ptr[1:] - 1]
    count_ge = seg_last[bin_rows] - csum[positions - 1]
    satisfied = (rank >= 1) & (count_ge >= rank)
    prefix = np.zeros(total_bins + 1, dtype=np.int64)
    np.cumsum(satisfied, out=prefix[1:])
    return prefix[bin_ptr[1:]] - prefix[bin_ptr[:-1]]


def sweep_values_numpy(
    graph: "UndirectedGraph",
    h: np.ndarray,
    vertices: np.ndarray | None = None,
) -> np.ndarray:
    """Recomputed h-index values for ``vertices`` (``None`` = all).

    The full-sweep path reuses the graph's cached ``heads()`` /
    ``hindex_bins()`` scratch buffers; the subset path gathers the
    members' adjacency slots through ``concat_ranges`` and builds a small
    ad-hoc segmentation, exactly as the frontier sweeps always did.
    """
    from ..kernels.segments import concat_ranges

    if vertices is None:
        return segment_h_index_numpy(
            graph.indptr,
            h[graph.indices],
            seg_rows=graph.heads(),
            bins=graph.hindex_bins(),
        )
    vertices = np.asarray(vertices)
    if vertices.size == 0:
        return np.empty(0, dtype=np.int64)
    lens = graph.degrees()[vertices]
    slots = concat_ranges(graph.indptr[vertices], lens)
    seg_ptr = np.zeros(vertices.size + 1, dtype=np.int64)
    np.cumsum(lens, out=seg_ptr[1:])
    return segment_h_index_numpy(seg_ptr, h[graph.indices[slots]])


def induced_edge_count_numpy(graph: "UndirectedGraph", member: np.ndarray) -> int:
    """Number of edges with both endpoints inside the ``member`` mask."""
    heads = graph.heads()
    inside = member[heads] & member[graph.indices] & (heads < graph.indices)
    return int(np.count_nonzero(inside))


class NumpyBackend(ArrayBackend):
    """The single-threaded reference backend; always available."""

    name = "numpy"

    def segment_h_index(self, seg_ptr, values, seg_rows=None, bins=None):
        """Per-segment h-indices via :func:`segment_h_index_numpy`."""
        return segment_h_index_numpy(seg_ptr, values, seg_rows=seg_rows, bins=bins)

    def sweep_values(self, graph, h, vertices=None):
        """One h-index sweep via :func:`sweep_values_numpy`."""
        return sweep_values_numpy(graph, h, vertices)

    def induced_edge_count(self, graph, member):
        """Induced edge count via :func:`induced_edge_count_numpy`."""
        return induced_edge_count_numpy(graph, member)
