"""Segment primitives: CSR range concatenation and sort-free h-indices.

The segmented h-index kernel is the heart of the sweep layer.  Given a
CSR-like segmentation (``seg_ptr``) of a flat value array, it returns the
h-index of every segment without sorting:

1. every value is clipped to its segment length (the h-index of a segment
   of length d is at most d, so larger values contribute exactly like d);
2. a single global ``bincount`` builds per-segment histograms over the
   value range ``0..d`` — segment s owns ``len(s) + 1`` bins, laid out
   consecutively from ``bin_ptr[s] = seg_ptr[s] + s`` (``sum(d_s + 1) =
   m + n`` bins in total);
3. over the bins, ``f[p] = (#values binned below p) + p`` is one
   exclusive prefix sum of ``hist + 1``, so it is strictly increasing.
   At rank k of segment s it reads ``seg_ptr[s + 1] + bin_ptr[s] + k -
   count_ge(k)``, where ``count_ge(k)`` is how many of the segment's
   values are >= k.  The ranks with ``count_ge(k) >= k`` are exactly
   those where ``f`` stays at or below ``seg_ptr[s + 1] + bin_ptr[s]``,
   and they form a prefix ``0..h`` of the segment's bins.  So one
   ``searchsorted(f, seg_ptr[s + 1] + bin_ptr[s], "right")`` per
   segment, minus ``bin_ptr[s] + 1``, is its h-index.

Total work is O(m + n log(m + n)): linear passes over the slots and bins
plus n binary searches in an array that is sorted by construction, with
no comparison sort anywhere, against the O(m log m) ``lexsort`` of the
pre-kernel-layer sweep (kept below as
:func:`reference_segment_h_index` for property tests and benches).

Execution is delegated to the active array backend
(:func:`repro.backends.get_backend`): this module keeps the public
contract and the docstring walkthrough, while the raw numpy formulation
lives in :mod:`repro.backends.numpy_backend` where the parallel
backends can share it.  Lint rule R013 guards the split — direct
``np`` kernel calls in this package that bypass the dispatch are
flagged.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend

__all__ = [
    "concat_ranges",
    "segment_h_index",
    "reference_segment_h_index",
]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + l)`` for every (start, length) pair.

    The standard vectorised multi-range construction: ones everywhere, a
    corrective jump at every segment boundary, one cumulative sum.  Empty
    segments are allowed and contribute nothing.

    >>> concat_ranges(np.array([5, 0]), np.array([3, 2])).tolist()
    [5, 6, 7, 0, 1]
    """
    starts = np.asarray(starts)
    lengths = np.asarray(lengths)
    if not np.issubdtype(starts.dtype, np.integer):
        starts = starts.astype(np.int64)
    if not np.issubdtype(lengths.dtype, np.integer):
        lengths = lengths.astype(np.int64)
    # Preserve the caller's index dtype (int32-narrowed graphs must not
    # upcast their frontier ranges back to int64 on every sweep).
    dtype = np.promote_types(starts.dtype, lengths.dtype)
    nonempty = lengths > 0
    if not nonempty.all():
        starts = starts[nonempty]
        lengths = lengths[nonempty]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=dtype)
    out = np.ones(total, dtype=dtype)
    out[0] = starts[0]
    boundaries = np.cumsum(lengths[:-1])
    out[boundaries] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    np.cumsum(out, out=out)
    return out


def segment_h_index(
    seg_ptr: np.ndarray,
    values: np.ndarray,
    seg_rows: np.ndarray | None = None,
    bin_ptr: np.ndarray | None = None,
) -> np.ndarray:
    """Return the h-index of every segment of ``values`` (sort-free).

    Parameters
    ----------
    seg_ptr:
        CSR-style pointer array of ``n + 1`` entries; segment ``s`` is
        ``values[seg_ptr[s]:seg_ptr[s + 1]]``.  Values must be
        non-negative integers.
    seg_rows:
        Optional precomputed ``np.repeat(arange(n), diff(seg_ptr))``
        (the owning segment of every slot) — pass a graph's cached
        ``heads()`` buffer to skip rebuilding it every sweep.
    bin_ptr:
        Optional precomputed histogram bin pointer ``seg_ptr + arange(n +
        1)`` as returned by ``UndirectedGraph.hindex_bins()``; rebuilt on
        the fly when absent (the frontier path passes small ad-hoc
        segments).

    >>> segment_h_index(np.array([0, 4, 4]), np.array([4, 3, 3, 1])).tolist()
    [3, 0]
    """
    return get_backend().segment_h_index(
        seg_ptr, values, seg_rows=seg_rows, bin_ptr=bin_ptr
    )


def reference_segment_h_index(
    seg_ptr: np.ndarray,
    values: np.ndarray,
    seg_rows: np.ndarray | None = None,
) -> np.ndarray:
    """The pre-kernel-layer O(m log m) lexsort formulation (reference).

    Kept verbatim for the old-vs-new property tests and the
    bench-regression harness; production sweeps use
    :func:`segment_h_index`.
    """
    seg_ptr = np.asarray(seg_ptr, dtype=np.int64)
    n = seg_ptr.size - 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    values = np.asarray(values)
    if seg_rows is None:
        seg_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(seg_ptr))
    order = np.lexsort((-values, seg_rows))  # repro-lint: disable=R013
    sorted_values = values[order]
    rank_in_row = np.arange(sorted_values.size) - seg_ptr[seg_rows] + 1
    satisfied = sorted_values >= rank_in_row
    prefix = np.concatenate([[0], np.cumsum(satisfied)])
    return (prefix[seg_ptr[1:]] - prefix[seg_ptr[:-1]]).astype(np.int64)
