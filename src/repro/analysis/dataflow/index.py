"""Interprocedural project index for the contract rules.

One :class:`ProjectIndex` is built per lint run from every file being
linted.  It records, per module, every function definition with the
*facts* the contract rules consume (runtime-parameter names, direct
SimRuntime charges, which callees a runtime argument is forwarded to),
and every ``@register_solver`` decoration with its keyword literals —
the static mirror of :mod:`repro.engine.spec`'s runtime registry.

On top of the per-function facts the index computes two fixed-point
closures over the (simple-name resolved) call graph:

* :meth:`ProjectIndex.function_charges` — may the function charge a
  SimRuntime it was handed (directly via ``rt.parfor`` /
  ``rt.par_tasks`` / ``rt.charge_serial``, or by forwarding its runtime
  to a callee that charges)?  Unknown callees receiving a runtime are
  assumed to charge, so single-file linting stays forgiving while
  whole-project linting is precise.
* :meth:`ProjectIndex.observes_runtime` — does it reach an
  ``observe_parfor`` call (the sanitizer hook), used to infer
  ``supports_sanitize``?

Call resolution is by simple name: the codebase keeps helper names
unique, and a collision merges conservatively (any charging candidate
makes the name charging).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CHARGE_METHODS",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "SolverRegistration",
    "runtime_locals",
]

#: SimRuntime methods that satisfy the engine's charged-runtime check
#: (``run`` errors unless ``parallel_loops`` or ``breakdown.serial``
#: advanced — ``parallel_region``/``observe_parfor``/``allocate`` do not).
CHARGE_METHODS = frozenset({"parfor", "par_tasks", "charge_serial"})

#: Parameter names conventionally holding a SimRuntime.
RUNTIME_PARAM_NAMES = frozenset({"runtime", "rt"})

#: Builtins that receive a runtime argument without ever charging it.
_NON_CHARGING_BUILTINS = frozenset(
    {"isinstance", "id", "repr", "str", "print", "len", "type", "getattr",
     "hasattr", "setattr", "callable", "format", "vars"}
)

#: The capability keywords accepted by ``@register_solver``.
CAPABILITY_KEYWORDS = (
    "supports_runtime",
    "supports_sanitize",
    "supports_seed",
    "supports_cluster",
)


def _annotation_mentions(annotation: ast.expr | None, needle: str) -> bool:
    if annotation is None:
        return False
    try:
        return needle in ast.unparse(annotation)
    except ValueError:
        return False


def _all_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[ast.arg]:
    a = func.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs]


def runtime_locals(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[frozenset[str], frozenset[str]]:
    """``(optional, definite)`` runtime-holding names in ``func``.

    *Optional* names are runtime parameters (the caller may pass
    ``None``); *definite* names are locals bound to a constructed or
    defaulted runtime — ``SimRuntime(...)``, ``runtime or SimRuntime(...)``,
    ``ctx.ensure_runtime()`` — which can never be ``None``.  Aliases
    propagate to a fixed point.
    """
    optional = {
        arg.arg
        for arg in _all_params(func)
        if arg.arg in RUNTIME_PARAM_NAMES
        or _annotation_mentions(arg.annotation, "SimRuntime")
    }
    definite: set[str] = set()

    def is_definite_expr(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Call):
            callee = expr.func
            if isinstance(callee, ast.Name) and callee.id == "SimRuntime":
                return True
            if isinstance(callee, ast.Attribute) and callee.attr in (
                "SimRuntime",
                "ensure_runtime",
            ):
                return True
        if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.Or):
            return any(is_definite_expr(v) for v in expr.values)
        if isinstance(expr, ast.Name):
            return expr.id in definite
        return False

    changed = True
    while changed:
        changed = False
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            target_names = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if not target_names:
                continue
            if is_definite_expr(value):
                for name in target_names:
                    if name not in definite:
                        definite.add(name)
                        changed = True
            elif isinstance(value, ast.Name) and value.id in optional:
                for name in target_names:
                    if name not in optional:
                        optional.add(name)
                        changed = True
    return frozenset(optional), frozenset(definite)


@dataclass
class FunctionInfo:
    """Per-function facts the contract rules and closures consume."""

    module_path: str
    qualname: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    params: tuple[str, ...] = ()
    optional_runtime: frozenset[str] = frozenset()
    definite_runtime: frozenset[str] = frozenset()
    direct_charge: bool = False
    direct_observe: bool = False
    runtime_forwards: tuple[str, ...] = ()
    calls: tuple[str, ...] = ()

    @property
    def runtime_names(self) -> frozenset[str]:
        """All names that may hold a runtime inside this function."""
        return self.optional_runtime | self.definite_runtime


@dataclass
class SolverRegistration:
    """One ``@register_solver`` decoration with its keyword literals."""

    name: str | None
    kind: str | None
    guarantee: str | None
    cost: str | None
    declared: dict[str, bool]
    function: FunctionInfo
    lineno: int


@dataclass
class ModuleInfo:
    """Everything the index knows about one linted file."""

    path: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    solvers: list[SolverRegistration] = field(default_factory=list)


def _callee_simple_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_register_solver(decorator: ast.expr) -> ast.Call | None:
    if not isinstance(decorator, ast.Call):
        return None
    callee = decorator.func
    name = (
        callee.id
        if isinstance(callee, ast.Name)
        else callee.attr if isinstance(callee, ast.Attribute) else None
    )
    return decorator if name == "register_solver" else None


class _ModuleCollector:
    """Walks one module tree, producing its :class:`ModuleInfo`."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.info = ModuleInfo(path=path)
        self._collect_functions(tree, prefix="")

    def _collect_functions(self, scope: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                self.info.functions[qualname] = self._collect_one(node, qualname)
            elif isinstance(node, ast.ClassDef):
                self._collect_functions(node, prefix=f"{prefix}{node.name}.")

    def _collect_one(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> FunctionInfo:
        optional, definite = runtime_locals(func)
        params = tuple(arg.arg for arg in _all_params(func))
        info = FunctionInfo(
            module_path=self.info.path,
            qualname=qualname,
            name=func.name,
            node=func,
            lineno=func.lineno,
            params=params,
            optional_runtime=optional,
            definite_runtime=definite,
        )
        runtime_names = info.runtime_names
        runtime_forwards: list[str] = []
        calls: list[str] = []
        direct_charge = False
        direct_observe = False

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = _callee_simple_name(node)
                if callee is not None:
                    calls.append(callee)
                if (
                    isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in runtime_names
                ):
                    if node.func.attr in CHARGE_METHODS:
                        direct_charge = True
                    if node.func.attr == "observe_parfor":
                        direct_observe = True
                arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
                for expr in arg_exprs:
                    if not isinstance(expr, ast.Name):
                        continue
                    if expr.id in runtime_names and callee is not None:
                        runtime_forwards.append(callee)

        info.direct_charge = direct_charge
        info.direct_observe = direct_observe
        info.runtime_forwards = tuple(runtime_forwards)
        info.calls = tuple(calls)

        for decorator in func.decorator_list:
            call = _is_register_solver(decorator)
            if call is not None:
                self.info.solvers.append(self._registration(call, info))
        return info

    def _registration(
        self, call: ast.Call, function: FunctionInfo
    ) -> SolverRegistration:
        def literal(expr: ast.expr | None):
            if isinstance(expr, ast.Constant):
                return expr.value
            return None

        kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        declared = {
            key: bool(literal(kwargs.get(key))) for key in CAPABILITY_KEYWORDS
        }
        return SolverRegistration(
            name=literal(call.args[0] if call.args else kwargs.get("name")),
            kind=literal(kwargs.get("kind")),
            guarantee=literal(kwargs.get("guarantee")),
            cost=literal(kwargs.get("cost")),
            declared=declared,
            function=function,
            lineno=call.lineno,
        )


class ProjectIndex:
    """Whole-project facts shared by every contract rule in one run."""

    def __init__(self) -> None:
        self._modules: dict[str, ModuleInfo] = {}
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._charges: dict[int, bool] = {}
        self._observes: dict[int, bool] = {}

    # ------------------------------------------------------------------
    # construction
    @classmethod
    def from_sources(cls, sources: list[tuple[str, ast.Module]]) -> "ProjectIndex":
        """Build an index from ``(posix_path, parsed tree)`` pairs."""
        index = cls()
        for path, tree in sources:
            index.add_module(path, tree)
        index._solve_closures()
        return index

    @classmethod
    def from_paths(cls, paths: list[Path]) -> "ProjectIndex":
        """Build an index by parsing every ``.py`` file in ``paths``."""
        sources: list[tuple[str, ast.Module]] = []
        for path in paths:
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError):
                continue
            sources.append((path.as_posix(), tree))
        return cls.from_sources(sources)

    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        """Index one parsed module under its posix path key."""
        info = _ModuleCollector(path, tree).info
        self._modules[path] = info
        for function in info.functions.values():
            self._by_name.setdefault(function.name, []).append(function)
        return info

    # ------------------------------------------------------------------
    # lookups
    def module(self, path: str | Path) -> ModuleInfo | None:
        """The indexed module for ``path`` (posix-normalised), if any."""
        return self._modules.get(Path(path).as_posix())

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every indexed function with the given simple name."""
        return self._by_name.get(name, [])

    def solvers(self) -> list[SolverRegistration]:
        """All solver registrations, sorted by (kind, name)."""
        regs = [
            reg for module in self._modules.values() for reg in module.solvers
        ]
        return sorted(regs, key=lambda r: (r.kind or "", r.name or ""))

    # ------------------------------------------------------------------
    # fixed-point closures
    def _solve_closures(self) -> None:
        functions = [
            fn for module in self._modules.values()
            for fn in module.functions.values()
        ]
        for fn in functions:
            self._charges[id(fn)] = fn.direct_charge
            self._observes[id(fn)] = fn.direct_observe
        changed = True
        while changed:
            changed = False
            for fn in functions:
                if not self._charges[id(fn)]:
                    if any(
                        self.callee_may_charge(callee)
                        for callee in fn.runtime_forwards
                    ):
                        self._charges[id(fn)] = True
                        changed = True
                if not self._observes[id(fn)]:
                    if any(
                        any(
                            self._observes.get(id(c), False)
                            for c in self.functions_named(callee)
                        )
                        for callee in set(fn.calls)
                    ):
                        self._observes[id(fn)] = True
                        changed = True

    def callee_may_charge(self, callee: str) -> bool:
        """May a call to ``callee`` charge a runtime passed to it?

        Unknown callees are assumed to charge (forgiving); known callees
        answer from the fixed point.
        """
        if callee in _NON_CHARGING_BUILTINS:
            return False
        candidates = self.functions_named(callee)
        if not candidates:
            return True
        return any(self._charges.get(id(c), False) for c in candidates)

    def function_charges(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` (transitively) charge a runtime it holds?"""
        return self._charges.get(id(fn), False)

    def observes_runtime(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` (transitively) reach an ``observe_parfor`` call?"""
        return self._observes.get(id(fn), False)

    # ------------------------------------------------------------------
    # charge-event scanning (shared by R007/R008)
    def expr_charges(self, expr: ast.AST, runtime_names: frozenset[str]) -> bool:
        """Does this expression (sub)tree contain a charge event?

        A charge event is a direct ``<rt>.parfor/par_tasks/charge_serial``
        call on a runtime-holding name, or a call forwarding such a name
        to a callee that may charge.
        """
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in runtime_names
                and node.func.attr in CHARGE_METHODS
            ):
                return True
            callee = _callee_simple_name(node)
            arg_exprs = list(node.args) + [kw.value for kw in node.keywords]
            for arg in arg_exprs:
                if (
                    isinstance(arg, ast.Name)
                    and arg.id in runtime_names
                    and callee is not None
                    and self.callee_may_charge(callee)
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # manifest
    def inferred_capabilities(self, reg: SolverRegistration) -> dict[str, bool]:
        """Statically inferred capability flags for one registration."""
        fn = reg.function
        has_runtime = bool(fn.runtime_names)
        return {
            "runtime": has_runtime and self.function_charges(fn),
            "sanitize": self.observes_runtime(fn),
            "seed": "seed" in fn.params,
            "cluster": "config" in fn.params,
        }

    def contracts_manifest(self) -> list[dict]:
        """Stable, sorted declared-vs-inferred capability records.

        One record per ``@register_solver`` decoration: the declared
        ``supports_*`` keyword literals next to the capabilities the
        dataflow pass inferred from the implementation, plus the list of
        capability names where the two disagree (review signal — rule
        R007 gates the load-bearing direction).
        """
        records = []
        for reg in self.solvers():
            declared = {
                key.removeprefix("supports_"): value
                for key, value in reg.declared.items()
            }
            inferred = self.inferred_capabilities(reg)
            records.append(
                {
                    "kind": reg.kind,
                    "name": reg.name,
                    "function": reg.function.qualname,
                    "module": reg.function.module_path,
                    "line": reg.function.lineno,
                    "guarantee": reg.guarantee,
                    "cost": reg.cost,
                    "declared": declared,
                    "inferred": inferred,
                    "mismatches": sorted(
                        key
                        for key in declared
                        if declared[key] != inferred[key]
                    ),
                }
            )
        return records
