"""O(m) counting-sort CSR construction.

The original containers built CSR via ``np.lexsort`` over all stored
arcs — O(m log m) with mergesort passes per key. Both builders here are
counting-sort based:

* :func:`csr_from_sorted_canonical` (undirected) exploits that every
  call site already holds the canonical edge list lex-sorted (it is the
  output of :func:`unique_pairs` or a CSR-ordered ``edges()``
  view): out-arc slots follow from pure arithmetic on the sorted rows,
  and in-arcs need only one single-key stable ``argsort`` — NumPy's
  radix sort for integer keys, O(m).
* :func:`counting_sort_csr` (directed) sorts arcs by the combined key
  ``heads * n + tails`` with one stable radix pass, replacing the
  two-key lexsort.

Both produce ``indptr``/``indices`` bit-identical to the lexsort
reference (kept as :func:`reference_csr_from_canonical` and pinned by
the equivalence suite in ``tests/store/test_csr_equivalence.py``).

The dedup primitive the containers and the peeling cascades share
lives here too. A plain ``np.unique`` (no index, inverse or counts)
goes through a hash table on NumPy 2.x and then sorts its output,
which at 1M int64 values costs 20-50x one ``np.sort``.
:func:`sorted_unique` is one sort plus a neighbour-difference mask, and
:func:`unique_pairs` dedups ``(head, tail)`` rows through the combined
key ``heads * n + tails``. Lint rule R016 keeps every other
``np.unique`` out of ``src/repro``.

:func:`balanced_bounds` is the one slot-balanced range partitioner: the
array backend splits sweeps into worker ranges with it, and
:func:`repro.store.shard.shard_bounds` splits a graph into shards.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import GraphError

__all__ = [
    "balanced_bounds",
    "csr_from_sorted_canonical",
    "counting_sort_csr",
    "reference_csr_from_canonical",
    "sorted_unique",
    "unique_pairs",
]

# Combined-key sorting needs heads * n + tails to fit in int64:
# n * n < 2**63  =>  n <= isqrt(2**63 - 1).
_COMBINED_KEY_MAX_VERTICES = 3_037_000_499


def sorted_unique(values) -> np.ndarray:
    """Sorted distinct entries of ``values``, flattened.

    Equal to ``np.unique(values)`` (same values, same dtype) for
    integers and finite floats, but one ``np.sort`` plus a
    neighbour-difference mask instead of NumPy's hash-table path.

    >>> sorted_unique([3, 1, 3, 2]).tolist()
    [1, 2, 3]
    """
    flat = np.sort(np.asarray(values), axis=None)
    if flat.size < 2:
        return flat
    first = np.empty(flat.size, dtype=bool)
    first[0] = True
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    return flat[first]


def balanced_bounds(cumulative: np.ndarray, parts: int) -> np.ndarray:
    """Split ``0..len(cumulative)-1`` into ``parts`` mass-balanced ranges.

    ``cumulative`` is a non-decreasing pointer array such as ``indptr``.
    Returns ``parts + 1`` non-decreasing int64 bounds from 0 to
    ``len(cumulative) - 1``; range ``i`` is ``[bounds[i], bounds[i + 1])``.
    The split equalises ``cumulative`` mass, not element counts, so a
    skewed-degree graph still balances.

    >>> balanced_bounds(np.array([0, 6, 7, 8, 9, 10, 11, 12]), 2).tolist()
    [0, 1, 7]
    """
    size = cumulative.size - 1
    total = int(cumulative[-1])
    targets = (np.arange(1, parts, dtype=np.int64) * total) // parts
    interior = np.searchsorted(cumulative, targets, side="left")
    bounds = np.empty(parts + 1, dtype=np.int64)
    bounds[0], bounds[-1] = 0, size
    bounds[1:-1] = np.minimum(interior, size)
    return np.maximum.accumulate(bounds)


def unique_pairs(num_vertices: int, heads, tails) -> np.ndarray:
    """Distinct ``(head, tail)`` rows, lex-sorted, as a ``(k, 2)`` int64 array.

    Equal to ``np.unique(np.stack([heads, tails], 1), axis=0)`` for ids
    in ``0..num_vertices-1``. Sorting the combined key
    ``heads * n + tails`` orders rows by head, then tail, so one
    :func:`sorted_unique` over int64 keys replaces NumPy's
    structured-row sort.

    >>> unique_pairs(3, [2, 0, 2], [1, 1, 1]).tolist()
    [[0, 1], [2, 1]]
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    if num_vertices > _COMBINED_KEY_MAX_VERTICES:
        # No graph this large fits in memory, so the slow row sort is a
        # correctness fallback only.
        rows = np.stack([heads, tails], axis=1)
        return np.unique(rows, axis=0)  # repro-lint: disable=R016 (combined key would overflow int64)
    n = np.int64(num_vertices)
    key = sorted_unique(heads * n + tails)
    pairs = np.empty((key.size, 2), dtype=np.int64)
    np.floor_divide(key, n, out=pairs[:, 0])
    np.subtract(key, pairs[:, 0] * n, out=pairs[:, 1])
    return pairs


def _sort_key_dtype(max_value: int) -> np.dtype:
    """Narrowest unsigned dtype holding ``0..max_value-1``.

    NumPy's stable sort on integers is a byte-wise radix sort, so a
    uint16 key sorts ~4x faster than the same values as int64.
    """
    if max_value <= 1 << 16:
        return np.dtype(np.uint16)
    if max_value <= 1 << 32:
        return np.dtype(np.uint32)
    return np.dtype(np.int64)


def _is_lex_sorted(heads: np.ndarray, tails: np.ndarray) -> bool:
    if heads.size < 2:
        return True
    du = heads[1:] >= heads[:-1]
    if not bool(du.all()):
        return False
    same = heads[1:] == heads[:-1]
    return bool(np.all(tails[1:][same] >= tails[:-1][same]))


def reference_csr_from_canonical(
    num_vertices: int, canonical_edges: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Original lexsort-based undirected CSR builder (reference only).

    Kept as the ground truth for the equivalence suite and the "before"
    leg of the CSR-build benchmark.
    """
    edge_u = canonical_edges[:, 0]
    edge_v = canonical_edges[:, 1]
    heads = np.concatenate([edge_u, edge_v])
    tails = np.concatenate([edge_v, edge_u])
    degrees = np.bincount(heads, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    order = np.lexsort((tails, heads))
    return indptr, np.ascontiguousarray(tails[order])


def csr_from_sorted_canonical(
    num_vertices: int,
    canonical_edges: np.ndarray,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected CSR from a lex-sorted canonical (u < v) edge list.

    O(m): degrees via ``bincount``, ``indptr`` via prefix sum, out-arc
    slots by arithmetic on the already-sorted rows, in-arc slots via one
    stable radix ``argsort`` on the single tail key. Rows that are not
    lex-sorted raise :class:`~repro.errors.GraphError`.

    ``dtype`` selects the output index dtype (default int64); the
    result is identical to :func:`reference_csr_from_canonical` cast to
    that dtype.
    """
    canon = np.asarray(canonical_edges, dtype=np.int64)
    if canon.ndim != 2 or canon.shape[1] != 2:
        canon = canon.reshape(-1, 2)
    out_dtype = np.dtype(np.int64) if dtype is None else np.dtype(dtype)
    num_edges = canon.shape[0]
    if num_edges == 0:
        return (
            np.zeros(num_vertices + 1, dtype=out_dtype),
            np.zeros(0, dtype=out_dtype),
        )
    edge_u = np.ascontiguousarray(canon[:, 0])
    edge_v = np.ascontiguousarray(canon[:, 1])
    if not _is_lex_sorted(edge_u, edge_v):
        raise GraphError(
            "csr_from_sorted_canonical needs lex-sorted (u, v) rows; "
            "dedup and sort them with unique_pairs first"
        )

    out_deg = np.bincount(edge_u, minlength=num_vertices)
    in_deg = np.bincount(edge_v, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(out_deg + in_deg, out=indptr[1:])
    indices = np.empty(2 * num_edges, dtype=np.int64)
    arange_m = np.arange(num_edges, dtype=np.int64)

    # Within vertex w's adjacency block, in-neighbors (< w, since u < v)
    # precede out-neighbors (> w); each sub-block lands pre-sorted, so
    # the block as a whole matches the lexsort ordering exactly.
    u_start = np.zeros(num_vertices, dtype=np.int64)
    np.cumsum(out_deg[:-1], out=u_start[1:])
    slots_out = indptr[edge_u] + in_deg[edge_u] + (arange_m - u_start[edge_u])
    indices[slots_out] = edge_v

    v_start = np.zeros(num_vertices, dtype=np.int64)
    np.cumsum(in_deg[:-1], out=v_start[1:])
    order = np.argsort(
        edge_v.astype(_sort_key_dtype(num_vertices), copy=False),
        kind="stable",
    )  # radix sort: O(m); fewer byte passes on a narrowed key
    sorted_v = edge_v[order]
    slots_in = indptr[sorted_v] + (arange_m - v_start[sorted_v])
    indices[slots_in] = edge_u[order]

    return indptr.astype(out_dtype, copy=False), indices.astype(
        out_dtype, copy=False
    )


def counting_sort_csr(
    num_vertices: int,
    heads: np.ndarray,
    tails: np.ndarray,
    dtype: Optional[np.dtype] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Directed CSR: arcs sorted by (head, tail) with one radix pass.

    Returns ``(indptr, indices, order)`` where ``order`` is the stable
    permutation sorting the input arcs — the containers use it as the
    CSR-position -> edge-id map. Identical to
    ``np.lexsort((tails, heads))`` (both stable), but a single radix
    ``argsort`` on the combined key ``heads * n + tails``; graphs too
    large for the combined key to fit in int64 fall back to lexsort.
    """
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    out_dtype = np.dtype(np.int64) if dtype is None else np.dtype(dtype)
    if num_vertices > _COMBINED_KEY_MAX_VERTICES:
        order = np.lexsort((tails, heads))
    else:
        key = heads * np.int64(num_vertices) + tails
        if num_vertices:
            key = key.astype(
                _sort_key_dtype(num_vertices * num_vertices), copy=False
            )
        order = np.argsort(key, kind="stable")
    degrees = np.bincount(heads, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.ascontiguousarray(tails[order], dtype=out_dtype)
    return indptr.astype(out_dtype, copy=False), indices, order
