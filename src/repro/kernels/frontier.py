"""Frontier (active-set) h-index sweeps.

After the first few sweeps of the h-index iteration almost every vertex is
already at its fixed point.  The frontier sweeps recompute only the
vertices whose next value can still differ from the current one:

* :func:`frontier_synchronous_sweep` — Jacobi: recomputes only the given
  frontier and returns two sets derived from the vertices it changed.
  The *woken* set is every neighbour of a changed vertex (the vertices a
  Pregel program would message, which the cost models charge); the next
  *frontier* is the woken vertices with a changed neighbour whose new
  value fell strictly below their own.  Only the frontier is recomputed
  next sweep.  The skip is exact for a monotone iteration (started from
  the degrees, or clamped): there ``H(min(x, c)) = min(H(x), c)``, so a
  vertex v whose changed neighbours all still sit at or above ``h(v)``
  keeps ``h(v)``.  Seeded with ``frontier=None`` (a full sweep), the
  per-sweep arrays are *identical* to full Jacobi sweeps, so
  convergence, iteration counts and the Theorem-1 early-stop trace are
  untouched; an empty woken set certifies the fixed point.
* :func:`frontier_inplace_sweep` — Gauss–Seidel over a dirty-set: the
  caller's order is pre-planned into maximal independent-set batches
  (:func:`gauss_seidel_batches`); each batch updates its dirty members
  simultaneously (legal: batch members are pairwise non-adjacent, so no
  member reads another's write), and changed members dirty their
  neighbours for *later batches of the same sweep* as well as the next
  sweep — reproducing full Gauss–Seidel's array evolution exactly.

Simulated-cost accounting stays with the callers: the Jacobi callers
charge the woken set (all n vertices on the first sweep), the
Gauss–Seidel caller the processed dirty set.  Under
``SimRuntime(sanitize=True)`` both sweeps route their per-vertex kernels
through :meth:`SimRuntime.observe_parfor` like the full sweeps do; the
batch loops are iteration-independent (independent sets), so they come
back race-free without needing an order-dependence annotation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..backends import get_backend
from .segments import concat_ranges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.undirected import UndirectedGraph
    from ..runtime.simruntime import SimRuntime

__all__ = [
    "hindex_sweep_values",
    "unwoken_floor",
    "lower_neighbour_floor",
    "split_woken",
    "frontier_synchronous_sweep",
    "frontier_inplace_sweep",
    "gauss_seidel_batches",
]

_EMPTY = np.empty(0, dtype=np.int64)
# Floor of a vertex no changed neighbour has woken.
_UNWOKEN = np.iinfo(np.int64).max


def hindex_sweep_values(
    graph: "UndirectedGraph",
    h: np.ndarray,
    vertices: np.ndarray | None = None,
) -> np.ndarray:
    """Recomputed h-index values of a vertex set, via the active backend.

    The single graph-aware hot-path operation every sweep is built from:
    ``vertices=None`` is one full Jacobi sweep body (all ``n`` values
    recomputed against the current ``h``); a vertex array restricts the
    recomputation to those ids, with the result aligned to ``vertices``.
    Returns ``int64`` values — callers cast back to ``h.dtype``.  This
    is the seam the parallel backends plug into
    (:mod:`repro.backends`); outputs are bit-identical across backends.
    """
    return get_backend().sweep_values(graph, h, vertices)


def _scalar_h_index(values: np.ndarray) -> int:
    """Scalar h-index used by the sanitizer's per-vertex kernel bodies."""
    from ..core.hindex import h_index

    return h_index(values)


def _neighbors_of(graph: "UndirectedGraph", vertices: np.ndarray) -> np.ndarray:
    """Sorted unique neighbour ids of a vertex batch (to mark dirty)."""
    if vertices.size == 0:
        return _EMPTY
    slots = concat_ranges(graph.indptr[vertices], graph.degrees()[vertices])
    mask = np.zeros(graph.num_vertices, dtype=bool)
    mask[graph.indices[slots]] = True
    return np.flatnonzero(mask)


def unwoken_floor(num_vertices: int) -> np.ndarray:
    """A per-vertex neighbour floor with no vertex woken yet."""
    return np.full(num_vertices, _UNWOKEN, dtype=np.int64)


def lower_neighbour_floor(
    floor: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: np.ndarray,
    new_h: np.ndarray,
    vertex_offset: int = 0,
) -> None:
    """Lower ``floor`` at every neighbour of ``changed`` to their new value.

    ``floor[v]`` becomes the smallest ``new_h[u]`` over the changed
    neighbours u of v seen so far.  ``indptr``/``indices`` is a CSR whose
    row ``r`` is vertex ``vertex_offset + r`` (the whole graph, or one
    shard of it); ``changed`` holds global ids of rows in it.  Shards can
    lower the same ``floor`` one after another: each changed vertex's new
    value is final once its own shard has been swept.
    """
    if changed.size == 0:
        return
    rows = changed - vertex_offset
    starts = indptr[rows].astype(np.int64, copy=False)
    lengths = indptr[rows + 1] - starts
    slots = concat_ranges(starts, lengths)
    np.minimum.at(floor, indices[slots], np.repeat(new_h[changed], lengths))


def split_woken(
    floor: np.ndarray, new_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(woken, frontier)`` of a finished sweep from its neighbour floor.

    ``woken`` is every vertex with a changed neighbour; ``frontier`` the
    woken vertices a changed neighbour now sits strictly below, the only
    ones whose value can move next sweep.  Both are sorted.
    """
    woken = np.flatnonzero(floor != _UNWOKEN)
    return woken, woken[floor[woken] < new_h[woken]]


def frontier_synchronous_sweep(
    graph: "UndirectedGraph",
    h: np.ndarray,
    frontier: np.ndarray | None = None,
    runtime: "SimRuntime | None" = None,
    clamp: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Jacobi sweep restricted to ``frontier``; ``(new_h, woken, next)``.

    ``frontier=None`` performs a full sweep (use it for the first
    iteration, when every vertex is active).  ``woken`` is every
    neighbour of a vertex that changed in this sweep; an empty ``woken``
    certifies the fixed point.  ``next`` is the subset of ``woken`` that
    has a changed neighbour whose new value is strictly below its own:
    the only vertices whose value can change in the following sweep, and
    the ``frontier`` to pass to it.

    ``clamp=True`` takes ``min(old, recomputed)``, making the iteration
    monotone decreasing from *any* pointwise upper bound of the core
    numbers — not just the degrees.  The streaming layer's warm-started
    rebuild (:mod:`repro.core.dynamic`) needs this: a warm bound can
    transiently rise under the raw operator at insertion endpoints,
    which the decrease-only frontier tracking would not propagate.
    Started from the degrees the clamp is an exact no-op (one sweep of
    the operator never exceeds them), so cold starts are bit-identical
    either way.
    """
    n = graph.num_vertices
    if n == 0:
        return h.copy(), _EMPTY, _EMPTY
    indptr, indices = graph.indptr, graph.indices
    if frontier is None:
        from ..core.hindex import synchronous_sweep

        new_h = synchronous_sweep(graph, h, runtime=runtime)
        if clamp:
            new_h = np.minimum(new_h, h)
        changed = np.flatnonzero(new_h < h)
    else:
        frontier = np.asarray(frontier, dtype=np.int64)
        new_h = h.copy()
        if frontier.size == 0:
            return new_h, _EMPTY, _EMPTY
        if runtime is not None and runtime.sanitize:

            def frontier_body(i, old, new):
                v = int(frontier[i])
                value = _scalar_h_index(old[indices[indptr[v]:indptr[v + 1]]])
                new[v] = min(old[v], value) if clamp else value

            runtime.observe_parfor(
                frontier.size,
                frontier_body,
                {"old": h, "new": new_h},
                label="frontier_synchronous_sweep",
            )
        else:
            values = hindex_sweep_values(graph, h, frontier).astype(
                h.dtype, copy=False
            )
            if clamp:
                values = np.minimum(values, h[frontier])
            new_h[frontier] = values
        changed = frontier[new_h[frontier] < h[frontier]]
    floor = unwoken_floor(n)
    lower_neighbour_floor(floor, indptr, indices, changed, new_h)
    return (new_h, *split_woken(floor, new_h))


def gauss_seidel_batches(
    graph: "UndirectedGraph", order: np.ndarray | None = None
) -> list[np.ndarray]:
    """Split ``order`` into maximal runs of pairwise non-adjacent vertices.

    Walking the order greedily, a vertex closes the current batch iff an
    earlier member of that batch is one of its neighbours.  Updating a
    batch simultaneously is then exactly sequential Gauss–Seidel: no
    member's h-index input overlaps another member's write.  The plan
    depends only on (graph, order), so callers running many sweeps
    compute it once.
    """
    n = graph.num_vertices
    vertices = (
        np.arange(n, dtype=np.int64)
        if order is None
        else np.asarray(order, dtype=np.int64)
    )
    if vertices.size == 0:
        return []
    indptr, indices = graph.indptr, graph.indices
    stamp = np.full(n, -1, dtype=np.int64)
    batch_id = 0
    boundaries: list[int] = []
    for i in range(vertices.size):
        v = int(vertices[i])
        if stamp[v] == batch_id:
            batch_id += 1
            boundaries.append(i)
        stamp[indices[indptr[v]:indptr[v + 1]]] = batch_id
    return np.split(vertices, boundaries)


def frontier_inplace_sweep(
    graph: "UndirectedGraph",
    h: np.ndarray,
    order: np.ndarray | None = None,
    dirty: np.ndarray | None = None,
    batches: list[np.ndarray] | None = None,
    runtime: "SimRuntime | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Gauss–Seidel sweep over the dirty set, updating ``h`` in place.

    Returns ``(h, dirty, processed)``: ``dirty`` is the boolean mask of
    vertices to process next sweep (mutated in place when passed in) and
    ``processed`` the ids recomputed this sweep, for frontier-aware cost
    accounting.  ``dirty=None`` means all vertices (the first sweep).

    Members of a batch are cleared from the dirty set when processed;
    members that then change re-dirty their neighbours immediately, so a
    neighbour sitting in a *later* batch of this same sweep is recomputed
    with the fresh value — the array evolution matches plain sequential
    Gauss–Seidel sweep for sweep, only skipping recomputations that are
    provably identity.
    """
    n = graph.num_vertices
    if batches is None:
        batches = gauss_seidel_batches(graph, order)
    if dirty is None:
        dirty = np.ones(n, dtype=bool)
    indptr, indices = graph.indptr, graph.indices
    sanitizing = runtime is not None and runtime.sanitize
    processed_parts: list[np.ndarray] = []
    for batch in batches:
        members = batch[dirty[batch]]
        if members.size == 0:
            continue
        dirty[members] = False
        old_values = h[members].copy()
        if sanitizing:

            def batch_body(i, h_arr, members=members):
                v = int(members[i])
                h_arr[v] = _scalar_h_index(h_arr[indices[indptr[v]:indptr[v + 1]]])

            runtime.observe_parfor(
                members.size, batch_body, {"h_arr": h}, label="frontier_inplace_batch"
            )
        else:
            h[members] = hindex_sweep_values(graph, h, members).astype(
                h.dtype, copy=False
            )
        changed = members[h[members] < old_values]
        if changed.size:
            dirty[_neighbors_of(graph, changed)] = True
        processed_parts.append(members)
    processed = (
        np.concatenate(processed_parts) if processed_parts else _EMPTY
    )
    return h, dirty, processed
