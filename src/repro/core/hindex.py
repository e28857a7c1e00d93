"""h-index kernels shared by Local (Algorithm 1) and PKMC (Algorithm 2).

The h-index of a multiset of numbers is the largest k such that at least k
of the numbers are >= k.  Iterating "replace every vertex's value by the
h-index of its neighbours' values", starting from the degrees, converges to
the core numbers (Lü et al.; Sariyuce et al.).  The key facts the paper
relies on — and which the property tests verify — are:

* the iteration is *monotone*: values never increase between sweeps;
* every intermediate value upper-bounds the vertex's core number;
* update order does not affect the fixed point (only convergence speed).

Two sweep variants are provided: a synchronous (Jacobi) sweep in which all
updates read the previous iteration's values — the natural semantics of the
paper's "for v in V in parallel" loop — and an in-place (Gauss–Seidel)
sweep in a caller-chosen order, used by the update-order ablation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..analysis.race import declare_order_dependent
from ..graph.undirected import UndirectedGraph
from ..kernels.frontier import gauss_seidel_batches, hindex_sweep_values

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.simruntime import SimRuntime

__all__ = [
    "h_index",
    "synchronous_sweep",
    "inplace_sweep",
    "degree_descending_order",
]


def h_index(values: np.ndarray) -> int:
    """Return the h-index of a 1-D array of non-negative numbers.

    >>> h_index(np.array([4, 3, 3, 1]))
    3
    >>> h_index(np.array([], dtype=np.int64))
    0
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0
    ordered = np.sort(values)[::-1]
    ranks = np.arange(1, ordered.size + 1)
    satisfied = ordered >= ranks
    return int(satisfied.sum())


def synchronous_sweep(
    graph: UndirectedGraph, h: np.ndarray, runtime: "SimRuntime | None" = None
) -> np.ndarray:
    """One Jacobi sweep: return new h-values computed from the old ones.

    Fully vectorised and sort-free: neighbour values are gathered through
    the CSR arrays and each adjacency segment's h-index is computed by the
    clipped-histogram + ``searchsorted`` kernel
    (:func:`~repro.kernels.segments.segment_h_index`) over the graph's
    cached ``heads()`` / ``hindex_bins()`` scratch buffers — no sort per
    sweep, where the kernel it replaced ran an O(m log m) ``lexsort``.
    The recomputation itself runs on the active array backend
    (:func:`~repro.kernels.frontier.hindex_sweep_values`), which may
    split the vertex range across pool threads; outputs are
    bit-identical whichever backend executes.

    When ``runtime`` is a sanitizing :class:`~repro.runtime.simruntime.
    SimRuntime`, the sweep instead executes its per-vertex kernel one
    iteration at a time under the race sanitizer (reads from the old array,
    writes to a fresh one — iteration-independent, so it always comes back
    clean).  Cost accounting is unaffected either way; callers declare the
    sweep's cost with :meth:`SimRuntime.parfor` as before.
    """
    n = graph.num_vertices
    if n == 0:
        return h.copy()
    if runtime is not None and runtime.sanitize:
        indptr, indices = graph.indptr, graph.indices
        new_h = h.copy()

        def jacobi_body(v, old, new):
            new[v] = h_index(old[indices[indptr[v]:indptr[v + 1]]])

        runtime.observe_parfor(
            n, jacobi_body, {"old": h, "new": new_h}, label="synchronous_sweep"
        )
        return new_h
    return hindex_sweep_values(graph, h).astype(h.dtype, copy=False)


def inplace_sweep(
    graph: UndirectedGraph,
    h: np.ndarray,
    order: np.ndarray | None = None,
    runtime: "SimRuntime | None" = None,
    batches: "list[np.ndarray] | None" = None,
) -> np.ndarray:
    """One Gauss–Seidel sweep updating ``h`` in place, in ``order``.

    Later updates observe earlier ones, which usually converges in fewer
    sweeps (the paper's Fig. 2 walkthrough updates in non-ascending degree
    order).  Returns ``h`` for convenience.

    The non-sanitized path no longer loops vertex by vertex: the order is
    pre-planned into maximal independent-set batches
    (:func:`~repro.kernels.frontier.gauss_seidel_batches`) and each batch
    is one vectorised segmented h-index computation.  Batch members are
    pairwise non-adjacent, so the simultaneous update is exactly the
    sequential one; callers running many sweeps can pass a precomputed
    ``batches`` plan to skip re-planning.

    This sweep is *intentionally* order-dependent — iterations read cells
    that earlier iterations wrote — so its sanitizer kernel carries the
    :func:`~repro.analysis.race.declare_order_dependent` annotation: under
    ``SimRuntime(sanitize=True)`` the read/write overlap is recorded in the
    loop report but not flagged as a race.
    """
    vertices = order if order is not None else np.arange(graph.num_vertices)
    if runtime is not None and runtime.sanitize:
        indptr, indices = graph.indptr, graph.indices

        @declare_order_dependent
        def gauss_seidel_body(i, h):
            v = int(vertices[i])
            h[v] = h_index(h[indices[indptr[v]:indptr[v + 1]]])

        runtime.observe_parfor(
            len(vertices), gauss_seidel_body, {"h": h}, label="inplace_sweep"
        )
        return h
    if batches is None:
        batches = gauss_seidel_batches(graph, order)
    for batch in batches:
        # Batch members are pairwise non-adjacent, so recomputing them
        # against the current ``h`` and writing back simultaneously is
        # exactly the sequential update — and safely range-splittable by
        # the parallel backends.
        h[batch] = hindex_sweep_values(graph, h, batch).astype(
            h.dtype, copy=False
        )
    return h


def degree_descending_order(graph: UndirectedGraph) -> np.ndarray:
    """Vertices sorted by non-ascending degree (stable), as in Example 1."""
    return np.argsort(-graph.degrees(), kind="stable")
