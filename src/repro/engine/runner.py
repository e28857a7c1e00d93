"""The execution engine: one dispatch path for every registered solver.

:func:`run` resolves a solver (by :class:`~repro.engine.spec.SolverSpec`
or registry name), forwards exactly the context fields the spec's
capability flags claim, executes it, verifies the runtime contract
(a ``supports_runtime`` solver must have charged costs to the runtime it
was given), and attaches a :class:`~repro.engine.report.RunReport` to
the result.  API, CLI, benchmark harness and examples all dispatch
through here, so behaviours like budgets, sanitizing and backends are
configured in one place.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..backends import resolve_backend_name, use_backend
from ..errors import EngineError
from ..graph.directed import DirectedGraph
from ..graph.undirected import UndirectedGraph
from ..store.memo import make_cache_key
from ..store.shard import ShardedGraph
from .context import ExecutionContext
from .report import RunReport, stamp_report
from .spec import SolverSpec, get_solver, solver_specs

__all__ = ["run", "resolve_solver", "registry_table"]


def resolve_solver(solver: SolverSpec | str, graph: Any) -> SolverSpec:
    """Resolve ``solver`` to a spec, inferring the kind from ``graph``.

    A string is looked up in the registry under the kind matching the
    graph's type (:class:`UndirectedGraph` → ``uds``,
    :class:`DirectedGraph` → ``dds``); a spec passes through unchanged.
    """
    if isinstance(solver, SolverSpec):
        return solver
    if isinstance(graph, ShardedGraph):
        kind = "dds" if graph.kind == "directed" else "uds"
    elif isinstance(graph, DirectedGraph):
        kind = "dds"
    elif isinstance(graph, UndirectedGraph):
        kind = "uds"
    else:
        raise EngineError(
            f"cannot infer solver kind from graph of type {type(graph).__name__}"
        )
    return get_solver(kind, solver)


def run(
    solver: SolverSpec | str,
    graph: Any,
    ctx: ExecutionContext | None = None,
    **options: Any,
) -> Any:
    """Execute ``solver`` on ``graph`` under ``ctx``; return its result.

    ``options`` override the spec's ``default_options`` and are forwarded
    verbatim (e.g. ``epsilon=0.5`` for PBU); a name the solver does not
    accept raises :class:`~repro.errors.EngineError` before anything
    runs.  Context fields are mapped to solver kwargs strictly by
    capability: ``runtime`` only when the spec
    declares ``supports_runtime`` (built lazily from the context's thread
    count, budgets and sanitize flag), ``seed`` only when
    ``supports_seed``, ``config`` only when ``supports_cluster``, and
    ``sanitize`` only when ``supports_sanitize`` on a solver with no
    runtime to carry it.  The whole run executes under the context's
    array backend (``ctx.backend``, resolved through
    :func:`repro.backends.resolve_backend_name`); the resolved name is
    recorded in the report and participates in the memoization key.

    After the run, a ``supports_runtime`` solver must have charged work to
    the runtime it received (a parallel loop or a serial section) —
    anything else means the solver silently ignored its runtime, which
    would corrupt the simulated-time experiments; :class:`~repro.errors.
    EngineError` is raised in that case.  The returned result carries a
    populated :class:`~repro.engine.report.RunReport` in ``.report``.
    """
    spec = resolve_solver(solver, graph)
    spec.check_options(options)
    ctx = ctx or ExecutionContext()
    # Resolve the array backend up front: an unknown name fails fast
    # (before any cache lookup), and the resolved name is part of the
    # cache key and the report either way.
    backend = resolve_backend_name(ctx.backend)
    kwargs: dict[str, Any] = dict(spec.default_options)
    kwargs.update(options)
    # A caller-supplied runtime kwarg is honoured for runtime-capable
    # solvers and dropped otherwise (the old api.py contract: serial
    # solvers accept and ignore one, e.g. under ``repro-dsd --sanitize``).
    explicit_runtime = kwargs.pop("runtime", None)
    if explicit_runtime is not None and ctx.runtime is None:
        ctx.runtime = explicit_runtime

    # Result memoization (repro.store.memo): opt-in via ctx.cache.  The
    # key covers the graph's content fingerprint, the solver identity,
    # every behaviour-relevant context field and the merged options; a
    # pre-supplied runtime or unhashable option makes the run uncacheable
    # (key is None).
    cache = ctx.cache
    cache_key = None
    if cache is not None and hasattr(graph, "fingerprint"):
        cache_key = make_cache_key(
            graph.fingerprint(), spec.kind, spec.name, ctx, kwargs,
            backend=backend,
        )
        cached = cache.get(cache_key)
        if cached is not None:
            return stamp_report(cached, cache_hit=True)

    # Shard-aware solvers run their supersteps straight over the facade;
    # for every other solver the engine assembles the monolithic graph
    # (an explicit escape hatch — the budget does not apply to it).  The
    # report and the memo key keep the caller's graph either way, which
    # is what makes sharded and monolithic runs share cache entries.  The
    # facade's counters are reset first, as the BSP solvers do, so the
    # report's shard record covers this run and no earlier one.
    solver_graph = graph
    if isinstance(graph, ShardedGraph) and not spec.supports_shards:
        graph.reset_stats()
        solver_graph = graph.to_graph()

    runtime = None
    charged_loops = charged_serial = 0.0
    if spec.supports_runtime:
        runtime = ctx.ensure_runtime()
        charged_loops = runtime.metrics.parallel_loops
        charged_serial = runtime.metrics.breakdown.serial
        kwargs["runtime"] = runtime
    if spec.supports_seed and ctx.seed is not None:
        kwargs["seed"] = ctx.seed
    if spec.supports_cluster and ctx.cluster_config is not None:
        kwargs.setdefault("config", ctx.cluster_config)
    if spec.supports_sanitize and not spec.supports_runtime and ctx.sanitize:
        # Runtime-capable solvers receive the sanitize flag inside the
        # SimRuntime built above; solvers that sanitize *without* a
        # runtime (the BSP ports drive a local sanitizing runtime of
        # their own) get it as an explicit kwarg.
        kwargs["sanitize"] = True

    with use_backend(backend):
        result = spec.func(solver_graph, **kwargs)

    if runtime is not None:
        charged = (
            runtime.metrics.parallel_loops > charged_loops
            or runtime.metrics.breakdown.serial > charged_serial
        )
        if not charged:
            raise EngineError(
                f"solver {spec.kind}:{spec.name} declares supports_runtime "
                "but charged nothing to the SimRuntime it was given"
            )
    report = RunReport.from_run(
        spec, result, runtime, graph=graph, backend=backend
    )
    if solver_graph is not graph:
        # The facade counts resident shards only; the run held the
        # assembled CSR, which to_graph() paged in outside that count.
        report = replace(
            report, graph_memory_bytes=int(solver_graph.memory_bytes())
        )
    result.report = report
    if cache is not None:
        cache.put(cache_key, result)
    return result


def registry_table(kind: str | None = None) -> str:
    """Render the solver registry as an aligned text table.

    One row per spec: name, kind, guarantee, cost tag and capability
    list.  Backs ``repro-dsd --list-methods``.
    """
    headers = ("name", "kind", "guarantee", "cost", "capabilities", "summary")
    rows = [
        (
            spec.name,
            spec.kind,
            spec.guarantee,
            spec.cost,
            ",".join(spec.capabilities) or "-",
            spec.summary,
        )
        for spec in solver_specs(kind)
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows)) if rows else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))).rstrip())
    return "\n".join(lines)
