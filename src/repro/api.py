"""High-level entry points for densest-subgraph discovery.

These are the two functions a downstream user calls; every algorithm in
the library is reachable through the ``method`` parameter, with the
paper's parallel algorithms (PKMC, PWC) as defaults.  Both dispatch
through :func:`repro.engine.run`, so every result carries a structured
:class:`~repro.engine.report.RunReport` in ``.report``.

>>> from repro import densest_subgraph
>>> from repro.graph import UndirectedGraph
>>> g = UndirectedGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
>>> result = densest_subgraph(g)
>>> sorted(result.vertices.tolist())
[0, 1, 2]
"""

from __future__ import annotations

from .core.results import DDSResult, UDSResult
from .engine import ExecutionContext, get_solver
from .engine import run as _engine_run

__all__ = ["densest_subgraph", "directed_densest_subgraph"]


def densest_subgraph(
    graph,
    method: str = "pkmc",
    num_threads: int = 1,
    **options,
) -> UDSResult:
    """Find a densest subgraph of an undirected graph.

    ``method`` selects the algorithm (see ``repro-dsd --list-methods`` or
    :func:`repro.engine.solver_names`); the default PKMC is the paper's
    parallel 2-approximation.  ``num_threads`` configures the simulated
    parallel runtime; extra keyword ``options`` are forwarded to the
    algorithm (e.g. ``epsilon`` for ``"pbu"``).  A ``runtime=`` option is
    honoured for runtime-capable solvers and ignored by serial ones,
    exactly as :func:`repro.engine.run` documents.
    """
    spec = get_solver("uds", method)
    ctx = ExecutionContext(num_threads=num_threads)
    return _engine_run(spec, graph, ctx, **options)


def directed_densest_subgraph(
    graph,
    method: str = "pwc",
    num_threads: int = 1,
    **options,
) -> DDSResult:
    """Find a densest (S, T)-subgraph of a directed graph.

    ``method`` selects the algorithm (see ``repro-dsd --list-methods`` or
    :func:`repro.engine.solver_names`); the default PWC is the paper's
    parallel 2-approximation based on the w*-induced subgraph.
    """
    spec = get_solver("dds", method)
    ctx = ExecutionContext(num_threads=num_threads)
    return _engine_run(spec, graph, ctx, **options)
