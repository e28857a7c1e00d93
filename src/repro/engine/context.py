"""Execution context: the one object threading run configuration to solvers.

Before the engine existed, every call site hand-threaded ``runtime=``
and thread counts into each solver, and each solver
re-implemented the ``runtime or SimRuntime(...)`` dance.  An
:class:`ExecutionContext` replaces that: build one per run (or let
:func:`repro.engine.run` build a default), and the engine forwards each
field only to solvers whose :class:`~repro.engine.spec.SolverSpec`
declares the matching capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..runtime.simruntime import SimRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..distributed.cluster import ClusterConfig
    from ..store.memo import ResultCache

__all__ = ["ExecutionContext"]


@dataclass
class ExecutionContext:
    """Everything a solver run may consume, in one place.

    ``runtime`` is created lazily by :meth:`ensure_runtime` (honouring
    ``num_threads``, ``sanitize`` and the budgets) the first time a
    runtime-capable solver runs, so serial solvers never pay for one and
    an explicitly supplied :class:`~repro.runtime.simruntime.SimRuntime`
    is always respected.  ``seed`` reaches only solvers declaring
    ``supports_seed``;
    ``cluster_config`` reaches only the BSP ports.  ``cache`` opts the
    run into result memoization (:mod:`repro.store.memo`): hits are
    served without re-executing the solver, keyed on the graph
    fingerprint plus every behavior-relevant context field; when unset,
    the run is not cached.  ``backend`` selects the array backend
    (:mod:`repro.backends`) the solver's kernels execute on for the
    duration of the run — ``None`` defers to an enclosing
    :func:`~repro.backends.use_backend` block, then the ``REPRO_BACKEND``
    environment variable, then the numpy default.
    Outputs are bit-identical whichever backend runs, so the field only
    affects wall-clock (and is recorded in the
    :class:`~repro.engine.report.RunReport`).
    """

    num_threads: int = 1
    runtime: SimRuntime | None = None
    seed: int | None = None
    sanitize: bool = False
    time_limit: float | None = None
    memory_limit_bytes: float | None = None
    cluster_config: "ClusterConfig | None" = None
    cache: "ResultCache | None" = None
    backend: str | None = None

    def ensure_runtime(self) -> SimRuntime:
        """Return the context's runtime, building one on first use."""
        if self.runtime is None:
            self.runtime = SimRuntime(
                num_threads=self.num_threads,
                time_limit=self.time_limit,
                memory_limit_bytes=self.memory_limit_bytes,
                sanitize=self.sanitize,
            )
        return self.runtime

    @property
    def simulated_seconds(self) -> float:
        """Simulated seconds charged so far (0.0 before any runtime work)."""
        return self.runtime.now if self.runtime is not None else 0.0
