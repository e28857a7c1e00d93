"""Structured run reports attached to every engine-dispatched result.

A :class:`RunReport` is the uniform "what happened" record the paper's
tables need: which solver ran, under which guarantee, how many
sweeps/rounds it took, the simulated parallel seconds, the peak frontier
(largest single parallel loop), and the solution density.  The engine
attaches one to every :class:`~repro.core.results.UDSResult` /
:class:`~repro.core.results.DDSResult` it returns; the construction is a
pure function of (spec, result, runtime), so a report built from a
direct solver call with the same runtime is equal to the engine's.

The shard, serve and stream layers each add one optional sub-record
(:class:`ShardRecord`, :class:`ServeRecord`, :class:`StreamRecord`),
``None`` outside that layer.  :func:`stamp_report` is the one way code
outside the engine sets them (lint rule R012).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.simruntime import SimRuntime
    from .spec import SolverSpec

__all__ = [
    "RunReport",
    "ShardRecord",
    "ServeRecord",
    "StreamRecord",
    "stamp_report",
]


@dataclass(frozen=True)
class ShardRecord:
    """What one run over a :class:`~repro.store.shard.ShardedGraph` cost.

    ``shards`` is the facade's partition count, ``shard_loads`` /
    ``peak_resident_bytes`` its residency counters for this run, and
    ``boundary_messages_bytes`` the bytes the BSP cost model moved
    across shard boundaries (0 when the engine materialized the graph
    for a shard-unaware solver).
    """

    shards: int
    shard_loads: int
    peak_resident_bytes: int
    boundary_messages_bytes: int = 0

    @classmethod
    def of(cls, result: Any, graph: Any) -> "ShardRecord | None":
        """The record of a sharded run, else ``None``.

        Solvers that executed over the facade stamp its counters into
        ``result.extras["shard_stats"]``; for a materialized run the
        facade's own counters, reset before materializing, cover it.
        """
        stats = (getattr(result, "extras", None) or {}).get("shard_stats")
        if stats is None and hasattr(graph, "num_shards") and hasattr(graph, "stats"):
            stats = graph.stats()
        if not isinstance(stats, dict):
            return None
        return cls(**{f.name: int(stats.get(f.name, 0)) for f in fields(cls)})


@dataclass(frozen=True)
class ServeRecord:
    """How :mod:`repro.serve` answered one query.

    ``queue_wait_s`` is how long the query sat in the admission queue
    before its flight started, ``batch_size`` how many queries shared
    its graph-fingerprint batch, and ``coalesced`` how many queries the
    one single-flight computation answered (1 = no duplicate attached).
    """

    queue_wait_s: float
    batch_size: int
    coalesced: int

    def __post_init__(self):
        if self.queue_wait_s < 0:
            raise ValueError("queue_wait_s must be non-negative")
        if self.batch_size < 1 or self.coalesced < 1:
            raise ValueError("batch_size and coalesced count this query: >= 1")


@dataclass(frozen=True)
class StreamRecord:
    """The maintenance counters behind one :mod:`repro.stream` answer.

    ``updates_applied`` is how many edge mutations the maintained
    structure has absorbed so far, ``affected_vertices`` how many
    vertices all its refreshes re-converged in total (a full rebuild
    counts all n), ``incremental_fraction`` the fraction of refreshes
    served by the localized path rather than a rebuild, and
    ``rebuilds`` the full-rebuild count (fallbacks included).
    """

    updates_applied: int
    affected_vertices: int
    incremental_fraction: float
    rebuilds: int

    def __post_init__(self):
        if min(self.updates_applied, self.affected_vertices, self.rebuilds) < 0:
            raise ValueError("streaming counters must be non-negative")
        if not 0.0 <= self.incremental_fraction <= 1.0:
            raise ValueError("incremental_fraction must be within [0, 1]")


@dataclass(frozen=True)
class RunReport:
    """Uniform outcome record for one solver run.

    ``iterations`` is the solver's own outer-iteration count (sweeps for
    the h-index family, peeling passes or rounds elsewhere — the paper's
    Table-6 quantity).  ``peak_frontier`` is the largest number of items
    any single parallel loop processed (the frontier kernels' high-water
    mark); ``parallel_loops``, ``peak_memory_bytes`` and ``breakdown``
    come from the run's :class:`~repro.runtime.metrics.RunMetrics` and
    are zero/empty for solvers that run without a simulated runtime.
    ``graph_memory_bytes`` is the *actual* resident size of the input
    graph's CSR + cached scratch buffers (``graph.memory_bytes()``) —
    distinct from the simulated ``peak_memory_bytes``; when the engine
    materialized a sharded graph for a shard-unaware solver, it is the
    assembled CSR's size.  ``cache_hit`` marks results served from the
    engine's memoization cache without re-running the solver.
    ``backend`` is the resolved array backend (:mod:`repro.backends`)
    the run's kernels executed on; it affects wall-clock only — never
    results or simulated seconds.

    ``shard``, ``serve`` and ``stream`` are the layer sub-records, each
    ``None`` unless the run went through that layer.
    """

    solver: str
    kind: str
    guarantee: str
    cost: str
    density: float
    iterations: int
    simulated_seconds: float
    num_threads: int = 1
    peak_frontier: int = 0
    parallel_loops: int = 0
    peak_memory_bytes: int = 0
    graph_memory_bytes: int = 0
    cache_hit: bool = False
    backend: str = "numpy"
    breakdown: dict[str, float] = field(default_factory=dict)
    shard: ShardRecord | None = None
    serve: ServeRecord | None = None
    stream: StreamRecord | None = None

    @classmethod
    def from_run(
        cls,
        spec: "SolverSpec",
        result: Any,
        runtime: "SimRuntime | None" = None,
        graph: Any = None,
        backend: str | None = None,
    ) -> "RunReport":
        """Build the report for ``result`` produced by ``spec``'s solver.

        Deterministic in its inputs: the engine and a direct solver call
        that used the same runtime (and graph) produce equal reports.
        ``backend=None`` records the currently active array backend —
        what a direct solver call just executed on.
        """
        if backend is None:
            from ..backends import backend_name

            backend = backend_name()
        measured: dict[str, Any] = {"simulated_seconds": result.simulated_seconds}
        if runtime is not None:
            metrics = runtime.metrics
            measured = {
                "simulated_seconds": runtime.now,
                "num_threads": runtime.num_threads,
                "peak_frontier": metrics.max_parfor_items,
                "parallel_loops": metrics.parallel_loops,
                "peak_memory_bytes": metrics.peak_memory_bytes,
                "breakdown": metrics.breakdown.as_dict(),
            }
        return cls(
            solver=spec.name,
            kind=spec.kind,
            guarantee=spec.guarantee,
            cost=spec.cost,
            density=result.density,
            iterations=result.iterations,
            graph_memory_bytes=(
                int(graph.memory_bytes()) if hasattr(graph, "memory_bytes") else 0
            ),
            backend=backend,
            shard=ShardRecord.of(result, graph),
            **measured,
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (for bench records and CLI output)."""
        return asdict(self)


def stamp_report(
    result: Any,
    *,
    serve: ServeRecord | None = None,
    stream: StreamRecord | None = None,
    cache_hit: bool | None = None,
    spec: "SolverSpec | None" = None,
    graph: Any = None,
) -> Any:
    """Set layer fields on ``result``'s report, in place; return ``result``.

    The one sanctioned way to annotate a report outside its
    construction: reports are engine-owned (lint rule R012 flags
    ``.report`` writes outside ``repro/engine/``), so the serve and
    stream layers — and the engine's own cache-hit path — hand their
    sub-record or ``cache_hit`` flag to this helper.  Arguments left
    ``None`` keep their current value, and the solver-outcome fields are
    never touched, so ``dataclasses.replace(report, serve=None)`` of a
    served report equals a direct ``engine.run`` report.  A result with
    no report yet (a streaming answer comes warm from the maintained
    structure, not from ``engine.run``) first gets one built by
    :meth:`RunReport.from_run` from ``spec`` (and ``graph``, to record
    its resident size).
    """
    if result.report is None:
        if spec is None:
            raise ValueError("stamp_report needs spec= to build a missing report")
        result.report = RunReport.from_run(spec, result, graph=graph)
    changes = {"serve": serve, "stream": stream, "cache_hit": cache_hit}
    result.report = replace(
        result.report,
        **{name: value for name, value in changes.items() if value is not None},
    )
    return result
