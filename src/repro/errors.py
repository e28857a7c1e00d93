"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or malformed graph inputs."""


class GraphFormatError(GraphError):
    """Raised when parsing an on-disk graph representation fails."""


class StreamMutationError(GraphError, ValueError):
    """Raised for invalid streamed edge mutations (self-loop, bad ids).

    The streaming layer validates whole batches *before* applying any of
    them, so a raised batch leaves the maintained edge set untouched.
    Inherits :class:`ValueError` as well as :class:`GraphError`: callers
    treating malformed update payloads as plain bad arguments and callers
    catching library graph errors both work.
    """


class EmptyGraphError(GraphError):
    """Raised when an algorithm requires a non-empty graph but got none.

    Densest-subgraph density is undefined on a graph without edges, so the
    solvers refuse such inputs explicitly rather than returning a bogus
    zero-density answer.
    """


class AlgorithmError(ReproError):
    """Raised when an algorithm reaches an internally inconsistent state."""


class EngineError(ReproError):
    """Raised by :mod:`repro.engine` for solver-registry misuse.

    Covers conflicting registrations, malformed :class:`~repro.engine.
    spec.SolverSpec` declarations, and solvers that violate their declared
    capabilities at run time (e.g. a ``supports_runtime`` solver that
    finishes without charging anything to its :class:`~repro.runtime.
    simruntime.SimRuntime`).
    """


class BackendError(ReproError):
    """Raised by :mod:`repro.backends` for array-backend failures.

    Covers unknown backend names and worker-side failures surfaced by
    the multiprocessing backend.
    """


class SimulationError(ReproError):
    """Base class for simulated-runtime failures."""


class SimTimeLimitExceeded(SimulationError):
    """The simulated clock passed the experiment's time budget.

    Mirrors the paper's 10^5-second wall-clock cutoff in Exp-5: algorithms
    whose simulated cost exceeds the budget are reported as DNF instead of
    being run to completion.
    """

    def __init__(self, elapsed: float, limit: float):
        super().__init__(
            f"simulated time {elapsed:.3g}s exceeded the limit of {limit:.3g}s"
        )
        self.elapsed = elapsed
        self.limit = limit


class ParforRaceError(SimulationError):
    """The race sanitizer observed a cross-iteration conflict in a parfor.

    Raised by :class:`repro.analysis.race.RaceSanitizer` (enabled through
    ``SimRuntime(sanitize=True)``) when two iterations of a declared
    parallel loop touch the same shared-array cell and at least one of
    them writes it, without the loop being annotated as intentionally
    order-dependent.  Carries the full :class:`LoopRaceReport` as
    ``report``.
    """

    def __init__(self, report):
        super().__init__(f"parfor race detected: {report.summary()}")
        self.report = report


class SimMemoryLimitExceeded(SimulationError):
    """The simulated peak memory passed the configured budget.

    Mirrors the paper's observation that PXY and PBD, which keep one graph
    copy per thread, overflow 255 GB on the Twitter graph once p > 4.
    """

    def __init__(self, peak_bytes: float, limit_bytes: float):
        super().__init__(
            f"simulated memory {peak_bytes / 2**30:.2f} GiB exceeded the "
            f"limit of {limit_bytes / 2**30:.2f} GiB"
        )
        self.peak_bytes = peak_bytes
        self.limit_bytes = limit_bytes


class DatasetError(ReproError):
    """Raised for unknown dataset names or invalid dataset specifications."""


class ServeRejected(ReproError):
    """A query was shed by the serving layer's admission control.

    Raised by :meth:`repro.serve.DsdServer.submit` when the bounded
    request queue is full (``reason="queue_full"``) or the query's
    tenant has exhausted its token-bucket quota (``reason="quota"``).
    ``retry_after_s`` carries the earliest time (seconds from now) at
    which retrying can succeed: the tenant bucket's next-token delay for
    quota rejections, ``0.0`` for queue-full rejections (the queue frees
    up as soon as the server drains).  Shedding is structured backpressure,
    not failure — the query was never admitted, so no partial work exists.
    """

    def __init__(self, reason: str, retry_after_s: float = 0.0, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        super().__init__(
            f"query rejected: {reason}, retry after {retry_after_s:.3g}s{suffix}"
        )
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.detail = detail
