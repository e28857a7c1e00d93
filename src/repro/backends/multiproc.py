"""Thread-pool backend: range tasks over the caller's frozen CSR.

The paper's PKMC (Algorithm 2) is an OpenMP ``parallel for`` over the
vertices of one shared CSR, and this backend has the same shape: a
:class:`~concurrent.futures.ThreadPoolExecutor` runs one task per
slot-balanced range (:func:`repro.store.csr.balanced_bounds`).  Each task
runs the numpy formulation (:mod:`repro.backends.numpy_backend`) on its
range of the caller's own arrays and writes a disjoint slice of one
output array, so results are bit-identical to numpy for any worker
count or completion order.  NumPy releases the GIL inside the array
operations the kernels spend their time in, so the tasks overlap.

Jacobi sweeps split the vertex range; frontier subsets and Gauss–Seidel
batches split the given vertex array (batch members are pairwise
non-adjacent, so a split stays race-free); the induced-edge count splits
the adjacency slots.  Calls touching fewer than ``inline_slot_cutoff``
adjacency slots run inline on numpy, where a task round trip would
dominate.

Thread rules:

* the calling thread builds every lazy scratch buffer a task reads
  (``degrees()``, ``heads()``) before dispatch, so no two threads race
  on a graph accessor;
* tasks call only the numpy formulations, never
  :func:`~repro.backends.get_backend`, so a task never waits on its own
  pool;
* a call returns only after all of its tasks finished, and a task's
  exception reaches the caller unchanged;
* the per-graph full-sweep range layouts and the counters sit behind one
  lock, so two threads may call one backend at once.

Accounting: each task measures its busy time with
:func:`time.thread_time`.  Per dispatched call the backend accumulates
the elapsed wall clock and the critical path
``max(max_busy, elapsed - sum(busy) + max_busy)``, the makespan the same
static partition yields once every worker has its own core.
``repro-bench backends`` reports both.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from ..errors import BackendError
from ..store.csr import balanced_bounds
from .base import ArrayBackend
from .numpy_backend import (
    induced_edge_count_numpy,
    segment_h_index_numpy,
    sweep_values_numpy,
)

__all__ = ["MultiprocBackend"]

#: Below this many adjacency slots an operation runs inline on numpy.
DEFAULT_INLINE_SLOT_CUTOFF = 4096

#: Graphs whose full-sweep range layouts are kept (LRU by fingerprint).
_LAYOUT_CACHE_CAP = 8


def _default_workers() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(bounds: np.ndarray) -> list[tuple[int, int]]:
    """The non-empty ``[lo, hi)`` ranges of a bounds array."""
    edges = bounds.tolist()
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _range_layout(indptr: np.ndarray, lo: int, hi: int) -> tuple:
    """Segment layout of the full-sweep vertex range ``[lo, hi)``.

    The range-local counterpart of the graph's ``heads()`` /
    ``hindex_bins()`` scratch, in the graph's index dtype (offsets stay
    under the graph-global ``2m + n`` it was narrowed for).
    """
    seg_ptr = indptr[lo:hi + 1] - indptr[lo]
    rows = np.arange(hi - lo, dtype=indptr.dtype)
    bin_ptr = seg_ptr + np.arange(hi - lo + 1, dtype=indptr.dtype)
    slots = (int(indptr[lo]), int(indptr[hi]))
    return lo, hi, slots, seg_ptr, np.repeat(rows, np.diff(seg_ptr)), bin_ptr


def _full_sweep_range(graph, h, out, layout) -> None:
    """Recompute ``out[lo:hi]`` from ``h`` for one full-sweep range."""
    lo, hi, (slot_lo, slot_hi), seg_ptr, seg_rows, bin_ptr = layout
    values = h[graph.indices[slot_lo:slot_hi]]
    out[lo:hi] = segment_h_index_numpy(
        seg_ptr, values, seg_rows=seg_rows, bin_ptr=bin_ptr
    )


def _subset_sweep_range(graph, h, vertices, out, lo, hi) -> None:
    """Recompute ``out[lo:hi]`` for the ids ``vertices[lo:hi]``."""
    out[lo:hi] = sweep_values_numpy(graph, h, vertices[lo:hi])


def _count_slot_range(graph, member, lo, hi) -> int:
    """Induced-edge count restricted to adjacency slots ``[lo, hi)``."""
    heads = graph.heads()[lo:hi]
    tails = graph.indices[lo:hi]
    return int(np.count_nonzero(member[heads] & member[tails] & (heads < tails)))


def _timed(task, *args):
    """Run one task; return ``(busy CPU seconds of this thread, result)``."""
    start = time.thread_time()  # repro-lint: disable=R001 (task busy-time accounting)
    result = task(*args)
    return time.thread_time() - start, result  # repro-lint: disable=R001 (task busy-time accounting)


class MultiprocBackend(ArrayBackend):
    """Thread pool running the kernel hot paths over slot-balanced ranges.

    ``workers`` defaults to the number of CPUs the process may run on;
    ``inline_slot_cutoff`` is the minimum adjacency-slot count an
    operation must touch before it is worth a trip through the pool.
    """

    name = "multiproc"

    def __init__(
        self,
        workers: int | None = None,
        inline_slot_cutoff: int = DEFAULT_INLINE_SLOT_CUTOFF,
    ):
        self.workers = int(workers) if workers is not None else _default_workers()
        if self.workers < 1:
            raise BackendError(f"workers must be >= 1, got {self.workers}")
        self.inline_slot_cutoff = int(inline_slot_cutoff)
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._layouts: "OrderedDict[str, list[tuple]]" = OrderedDict()
        self.reset_perf()

    def close(self) -> None:
        """Shut the pool down and drop the cached range layouts."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._layouts.clear()
        if pool is not None:
            pool.shutdown(wait=True)

    # -- dispatch ------------------------------------------------------

    def _full_layouts(self, graph) -> list[tuple]:
        """The full-sweep range layouts of ``graph``, built once per graph."""
        key = graph.fingerprint()
        with self._lock:
            layouts = self._layouts.get(key)
            if layouts is not None:
                self._layouts.move_to_end(key)
                return layouts
            bounds = balanced_bounds(graph.indptr.astype(np.int64), self.workers)
            layouts = [
                _range_layout(graph.indptr, lo, hi) for lo, hi in _ranges(bounds)
            ]
            self._layouts[key] = layouts
            while len(self._layouts) > _LAYOUT_CACHE_CAP:
                self._layouts.popitem(last=False)
            return layouts

    def _dispatch(self, task, arg_tuples: list[tuple]) -> list:
        """Run ``task(*args)`` for every tuple on the pool; return the results."""
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    self.workers, thread_name_prefix="repro-backend"
                )
            pool = self._pool
        start = time.perf_counter()  # repro-lint: disable=R001 (perf accounting, not simulation)
        futures = [pool.submit(_timed, task, *args) for args in arg_tuples]
        # Wait for every task before reading any result: no task may
        # still read the caller's arrays once this call returns or raises.
        wait(futures)
        elapsed = time.perf_counter() - start  # repro-lint: disable=R001 (perf accounting, not simulation)
        timed = [future.result() for future in futures]
        busy = [seconds for seconds, _ in timed]
        busy_sum, busy_max = float(sum(busy)), float(max(busy, default=0.0))
        with self._lock:
            self.perf["dispatched_calls"] += 1
            self.perf["tasks"] += len(timed)
            self.perf["elapsed_s"] += elapsed
            self.perf["busy_s"] += busy_sum
            self.perf["critical_s"] += max(busy_max, elapsed - busy_sum + busy_max)
        return [result for _, result in timed]

    def _count_inline(self) -> None:
        with self._lock:
            self.perf["inline_calls"] += 1

    # -- perf accounting ----------------------------------------------

    def reset_perf(self) -> None:
        """Zero the accumulated dispatch/inline counters."""
        self.perf = {
            "dispatched_calls": 0,
            "inline_calls": 0,
            "tasks": 0,
            "elapsed_s": 0.0,
            "busy_s": 0.0,
            "critical_s": 0.0,
        }

    def perf_snapshot(self) -> dict:
        """Copy of the accumulated counters (for the bench harness)."""
        with self._lock:
            return dict(self.perf)

    # -- ArrayBackend operations ---------------------------------------

    def segment_h_index(self, seg_ptr, values, seg_rows=None, bin_ptr=None):
        """Per-segment h-indices, computed inline on numpy.

        Every heavy caller goes through :meth:`sweep_values`; a generic
        segmentation stays on the calling thread.
        """
        self._count_inline()
        return segment_h_index_numpy(
            seg_ptr, values, seg_rows=seg_rows, bin_ptr=bin_ptr
        )

    def sweep_values(self, graph, h, vertices=None):
        """One h-index sweep, fanned out over slot-balanced ranges.

        Calls under ``inline_slot_cutoff`` adjacency slots run inline on
        numpy; the rest split the vertices by slot mass, one task per
        range.
        """
        n = graph.num_vertices
        if vertices is None:
            lens, slot_total = None, graph.indices.size
        else:
            vertices = np.asarray(vertices, dtype=np.int64)
            lens = graph.degrees()[vertices]  # builds the tasks' scratch here
            slot_total = int(lens.sum())
        if n == 0 or slot_total < self.inline_slot_cutoff:
            self._count_inline()
            return sweep_values_numpy(graph, h, vertices)
        if vertices is None:
            out = np.empty(n, dtype=np.int64)
            self._dispatch(_full_sweep_range, [
                (graph, h, out, layout) for layout in self._full_layouts(graph)
            ])
            return out
        cumulative = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(lens, out=cumulative[1:])
        out = np.empty(vertices.size, dtype=np.int64)
        self._dispatch(_subset_sweep_range, [
            (graph, h, vertices, out, lo, hi)
            for lo, hi in _ranges(balanced_bounds(cumulative, self.workers))
        ])
        return out

    def induced_edge_count(self, graph, member):
        """Edges with both endpoints in ``member``, counted per slot range."""
        slots = graph.indices.size
        if slots < self.inline_slot_cutoff:
            self._count_inline()
            return induced_edge_count_numpy(graph, member)
        graph.heads()  # build the scratch the tasks read, on this thread
        bounds = np.linspace(0, slots, self.workers + 1).astype(np.int64)
        counts = self._dispatch(
            _count_slot_range, [(graph, member, lo, hi) for lo, hi in _ranges(bounds)]
        )
        return int(sum(counts))
