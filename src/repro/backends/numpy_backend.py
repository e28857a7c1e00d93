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
    bin_ptr: np.ndarray | None = None,
) -> np.ndarray:
    """Sort-free segmented h-index: clipped bincount + one ``searchsorted``.

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
    if bin_ptr is None:
        bin_ptr = seg_ptr + np.arange(n + 1)
    clipped = np.minimum(values, lens[seg_rows])
    total_bins = int(bin_ptr[-1])
    # f[p] = (#keys < p) + p, the exclusive prefix sum of hist + 1:
    # strictly increasing, so one search per segment finds its h-index.
    hist = np.bincount(bin_ptr[seg_rows] + clipped, minlength=total_bins)
    hist += 1
    f = np.empty(total_bins, dtype=np.int64)
    f[0] = 0
    np.cumsum(hist[:-1], out=f[1:])
    # int64 targets: they reach 4m + n, past the 2m + n an int32-narrowed
    # graph's index dtype is sized for.
    first_bin = bin_ptr[:-1].astype(np.int64)
    found = np.searchsorted(f, seg_ptr[1:] + first_bin, side="right")
    return found - first_bin - 1


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
            bin_ptr=graph.hindex_bins(),
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

    def segment_h_index(self, seg_ptr, values, seg_rows=None, bin_ptr=None):
        """Per-segment h-indices via :func:`segment_h_index_numpy`."""
        return segment_h_index_numpy(
            seg_ptr, values, seg_rows=seg_rows, bin_ptr=bin_ptr
        )

    def sweep_values(self, graph, h, vertices=None):
        """One h-index sweep via :func:`sweep_values_numpy`."""
        return sweep_values_numpy(graph, h, vertices)

    def induced_edge_count(self, graph, member):
        """Induced edge count via :func:`induced_edge_count_numpy`."""
        return induced_edge_count_numpy(graph, member)
