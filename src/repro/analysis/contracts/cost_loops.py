"""R008: graph-sized Python loops in runtime-capable code must be costed.

The paper's scalability claims assume each peeling/sweep pass charges
O(m) simulated work.  A Python-level ``for`` loop over a graph-sized
iterable — ``graph.edges()``, a raw CSR ``indices`` array,
``range(num_vertices)`` / ``range(num_edges)`` — inside a function that
holds a SimRuntime but never charges it is uncosted O(n)/O(m) work: the
bench harness reports simulated seconds that do not include it, which is
exactly the silent-perf-bug class this rule exists to catch.  It fires
as a *warning*: the fix is usually to vectorize through
:mod:`repro.kernels`, not to sprinkle charges.

A loop is only flagged when the *enclosing function* contains no charge
event at all: per-iteration metering (``while num_alive > 0: ...
rt.parfor(...)``) and the bulk-charge idiom (``greedypp_uds`` runs each
Python peel loop, then prices the whole pass at once with
``charge_serial_peel``) both stay clean — the rule targets functions
whose graph-sized work is entirely invisible to the cost model.
Functions without any runtime-holding name are skipped too: serial
brute-force solvers are allowed their Python loops, the cost model
prices them as ``cost="serial"``.
"""

from __future__ import annotations

import ast

from ..dataflow.index import FunctionInfo, ProjectIndex
from ..engine import Rule

__all__ = ["UnchargedGraphLoopRule"]

_SIZE_ATTRS = frozenset({"num_vertices", "num_edges"})
_GRAPH_SIZED_CALLS = frozenset({"edges"})
_GRAPH_SIZED_ATTRS = frozenset({"indices"})


def _graph_sized_names(func: ast.AST) -> set[str]:
    """Names bound (anywhere in ``func``) to a graph-sized quantity."""
    sized: set[str] = set()

    def value_is_sized(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Attribute) and expr.attr in _SIZE_ATTRS:
            return True
        if isinstance(expr, ast.Name) and expr.id in sized:
            return True
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "int"
            and expr.args
        ):
            return value_is_sized(expr.args[0])
        return False

    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and value_is_sized(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in sized:
                        sized.add(target.id)
                        changed = True
    return sized


def _iterable_description(expr: ast.expr, sized: set[str]) -> str | None:
    """A human description if ``expr`` iterates a graph-sized object."""
    if isinstance(expr, ast.Call):
        callee = expr.func
        if isinstance(callee, ast.Attribute) and callee.attr in _GRAPH_SIZED_CALLS:
            return f".{callee.attr}()"
        if isinstance(callee, ast.Name) and callee.id == "range" and expr.args:
            stop = expr.args[1] if len(expr.args) >= 2 else expr.args[0]
            if isinstance(stop, ast.Attribute) and stop.attr in _SIZE_ATTRS:
                return f"range(.{stop.attr})"
            if isinstance(stop, ast.Name) and stop.id in sized:
                return f"range({stop.id})"
    if isinstance(expr, ast.Attribute) and expr.attr in _GRAPH_SIZED_ATTRS:
        return f".{expr.attr}"
    if isinstance(expr, ast.Name) and expr.id in sized:
        return expr.id
    return None


class UnchargedGraphLoopRule(Rule):
    """Flag uncharged Python-level loops over graph-sized iterables."""

    rule_id = "R008"
    title = "graph-sized Python loop without a SimRuntime charge"
    severity = "warning"
    fix_hint = (
        "vectorize the loop through repro.kernels (parfor/frontier/segment "
        "kernels) or charge it explicitly with rt.parfor/rt.charge_serial "
        "so the cost model sees the work"
    )
    requires_project = True

    def run(self, tree: ast.Module) -> list:
        """Scan every runtime-capable function in the current module."""
        project: ProjectIndex | None = self.context.project
        if project is None:
            return self.findings
        module = project.module(self.context.path)
        if module is None:
            return self.findings
        for function in module.functions.values():
            self._check(project, function)
        return self.findings

    def _check(self, project: ProjectIndex, fn: FunctionInfo) -> None:
        runtime_names = fn.runtime_names
        if not runtime_names:
            return
        if project.expr_charges(fn.node, runtime_names):
            return  # metered somewhere: per-iteration or bulk-charged
        sized = _graph_sized_names(fn.node)
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iterables = [gen.iter for gen in node.generators]
            else:
                continue
            described = None
            for iterable in iterables:
                described = _iterable_description(iterable, sized)
                if described is not None:
                    break
            if described is None:
                continue
            self.report(
                node,
                f"Python-level loop over graph-sized `{described}` in a "
                "runtime-capable function, with no SimRuntime charge inside "
                "the loop — this work is invisible to the cost model",
            )
