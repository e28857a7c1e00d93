"""repro.engine — unified solver registry and execution engine.

The three layers every solver run goes through:

* **registry** (:mod:`repro.engine.spec`): each solver module declares
  itself with ``@register_solver(name, kind=..., guarantee=..., cost=...,
  supports_...)``; import-time auto-discovery means no central method
  dict is ever edited (lint rule R006 enforces the convention);
* **context** (:mod:`repro.engine.context`): an
  :class:`ExecutionContext` carries the SimRuntime, thread count, seed,
  budgets and sanitize toggle — the engine forwards each field only to
  solvers whose spec claims the capability;
* **report** (:mod:`repro.engine.report`): :func:`run` attaches a
  structured :class:`RunReport` (guarantee, sweeps/rounds, simulated
  seconds, peak frontier, density) to every result, with optional
  ``shard``/``serve``/``stream`` sub-records set by :func:`stamp_report`.

Typical use::

    from repro.engine import ExecutionContext, run
    result = run("pkmc", graph, ExecutionContext(num_threads=32))
    print(result.report.simulated_seconds, result.report.guarantee)

See ``docs/architecture.md`` for the full design.
"""

from __future__ import annotations

from ..store.memo import ResultCache
from .context import ExecutionContext
from .report import (
    RunReport,
    ServeRecord,
    ShardRecord,
    StreamRecord,
    stamp_report,
)
from .runner import registry_table, resolve_solver, run
from .spec import (
    SolverSpec,
    get_solver,
    register_solver,
    solver_names,
    solver_specs,
    temporary_solver,
    unregister_solver,
)

__all__ = [
    "ExecutionContext",
    "ResultCache",
    "RunReport",
    "ShardRecord",
    "ServeRecord",
    "StreamRecord",
    "stamp_report",
    "SolverSpec",
    "run",
    "resolve_solver",
    "registry_table",
    "register_solver",
    "unregister_solver",
    "temporary_solver",
    "get_solver",
    "solver_names",
    "solver_specs",
]
