"""Abstract interface every array backend implements.

A backend owns the *execution strategy* for the three data-parallel
operations the kernel layer spends its time in; the kernel modules
(:mod:`repro.kernels.segments` / ``frontier`` / ``density``) stay the
single source of truth for the algorithms' semantics and dispatch here
for the heavy lifting.  The contract is strict bit-identity: every
backend must return exactly the arrays the numpy reference backend
returns — same values, same dtype — so solver iteration counts, density
reports and :class:`~repro.runtime.simruntime.SimRuntime` charges are
backend-invariant by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graph.undirected import UndirectedGraph

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Execution strategy for the kernel layer's data-parallel operations.

    Subclasses override the three operation hooks; :meth:`close`
    releases thread pools and cached layouts.
    """

    #: Registry name, e.g. ``"numpy"``; set by each implementation.
    name: str = "abstract"

    def segment_h_index(
        self,
        seg_ptr: np.ndarray,
        values: np.ndarray,
        seg_rows: np.ndarray | None = None,
        bin_ptr: np.ndarray | None = None,
    ) -> np.ndarray:
        """Generic segmented h-index over an arbitrary segmentation.

        Semantics of :func:`repro.kernels.segments.segment_h_index`; the
        ``seg_rows`` / ``bin_ptr`` hints are optional precomputed layouts.
        """
        raise NotImplementedError

    def sweep_values(
        self,
        graph: "UndirectedGraph",
        h: np.ndarray,
        vertices: np.ndarray | None = None,
    ) -> np.ndarray:
        """Recomputed h-index values for a vertex set (the sweep hot path).

        ``vertices=None`` recomputes every vertex (one full Jacobi sweep
        body); otherwise only the given ids are recomputed and the result
        aligns with ``vertices`` (frontier subsets, Gauss–Seidel batches).
        Always returns ``int64`` values read against the *current* ``h``.
        """
        raise NotImplementedError

    def induced_edge_count(self, graph: "UndirectedGraph", member: np.ndarray) -> int:
        """Number of edges with both endpoints inside the boolean mask."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any pools and caches; safe to call repeatedly."""

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"
