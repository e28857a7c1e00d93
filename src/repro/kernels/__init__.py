"""Vectorized hot-path kernels shared by the solvers.

This package is the library's kernel layer: tight, allocation-conscious
NumPy formulations of the operations every sweep-based solver spends its
time in —

* :mod:`~repro.kernels.segments` — segment primitives: concatenating CSR
  ranges and the sort-free segmented h-index (clipped ``bincount`` +
  segment suffix sums, O(m) per sweep instead of the O(m log m) lexsort);
* :mod:`~repro.kernels.frontier` — frontier/active-set sweeps that
  recompute a vertex only when a neighbour's value changed last sweep,
  for both Jacobi (:func:`frontier_synchronous_sweep`) and Gauss–Seidel
  (:func:`frontier_inplace_sweep` over independent-set batches);
* :mod:`~repro.kernels.density` — the shared induced-edge scan behind
  every ``|E(S)|/|S|`` density report, on the graph's cached ``heads``
  scratch buffer.

Reference (pre-kernel-layer) implementations are kept as
``reference_synchronous_sweep`` / ``reference_inplace_sweep`` so property
tests and the bench-regression harness can compare old against new.

This layer states *what* every kernel computes; *how* it executes is
delegated to the active array backend (:mod:`repro.backends` — numpy
reference or shared-memory multiprocessing), selected via
``ExecutionContext(backend=...)`` or ``REPRO_BACKEND``.  Outputs
are bit-identical across backends, and lint rule R013 flags direct
``np`` kernel calls here that would bypass the dispatch.
"""

from .density import induced_density, induced_edge_count
from .frontier import (
    frontier_inplace_sweep,
    frontier_synchronous_sweep,
    gauss_seidel_batches,
    hindex_sweep_values,
)
from .segments import (
    concat_ranges,
    reference_segment_h_index,
    segment_h_index,
)

__all__ = [
    "concat_ranges",
    "segment_h_index",
    "reference_segment_h_index",
    "hindex_sweep_values",
    "frontier_synchronous_sweep",
    "frontier_inplace_sweep",
    "gauss_seidel_batches",
    "induced_density",
    "induced_edge_count",
]
