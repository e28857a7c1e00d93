"""Solver registry: :class:`SolverSpec` + the ``@register_solver`` decorator.

Every solver module under ``repro.algorithms``, ``repro.core`` and
``repro.distributed`` declares itself with ``@register_solver(...)`` at
import time; nothing in the library hand-maintains a method dict any
more.  The registry is the single source of truth for dispatch
(:func:`repro.engine.run`), :func:`solver_names`, the CLI's method list,
and the benchmark harness.

Lint rule R006 (:mod:`repro.analysis.rules.registry`) enforces the
convention: solver-shaped functions must carry the decorator, and no
code may poke solver tables directly.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Literal, Mapping

from ..errors import AlgorithmError, EngineError

__all__ = [
    "SolverSpec",
    "register_solver",
    "registry_manifest",
    "unregister_solver",
    "get_solver",
    "solver_names",
    "solver_specs",
    "temporary_solver",
]

Kind = Literal["uds", "dds"]
Guarantee = Literal["exact", "2-approx", "heuristic"]

#: Cost-model tags describing how a solver's work is accounted.
COST_TAGS = ("parallel", "serial", "stream", "bsp")


@dataclass(frozen=True)
class SolverSpec:
    """Declarative description of one registered solver.

    ``name`` is the registry key (the CLI / API method string), ``kind``
    selects the problem (``"uds"`` undirected, ``"dds"`` directed),
    ``guarantee`` the solution quality class, and ``cost`` the
    cost-model tag (``"parallel"`` charges a :class:`~repro.runtime.
    simruntime.SimRuntime` via ``parfor``; ``"serial"`` charges serial
    sections; ``"stream"`` marks pass-based streaming accounting;
    ``"bsp"`` runs on the simulated cluster instead of a SimRuntime).

    The capability flags tell the execution engine which pieces of an
    :class:`~repro.engine.context.ExecutionContext` the solver can
    consume; the engine never forwards a kwarg the spec does not claim.
    """

    name: str
    kind: Kind
    func: Callable[..., Any]
    guarantee: Guarantee
    cost: str
    supports_runtime: bool = False
    supports_sanitize: bool = False
    supports_seed: bool = False
    supports_cluster: bool = False
    supports_shards: bool = False
    """Whether the solver can execute directly on a
    :class:`~repro.store.shard.ShardedGraph` (out-of-core supersteps).
    Not a context-forwarding capability — the engine materializes the
    monolithic graph for solvers without it — so it is deliberately
    absent from :meth:`capability_flags` and the contracts manifest."""

    supports_streaming: bool = False
    """Whether the solver's answer can be maintained incrementally under
    edge mutations (``repro.stream`` wraps it in a warm-started
    :class:`~repro.core.dynamic.DynamicKStarCore` session instead of
    re-running it per batch).  Like ``supports_shards`` this is not a
    context-forwarding capability — the engine never passes a stream to
    a solver — so it is deliberately absent from
    :meth:`capability_flags` and the contracts manifest."""

    default_options: dict[str, Any] = field(default_factory=dict)
    summary: str = ""
    option_names: frozenset[str] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    """The option names ``func`` accepts after the graph, read once from
    its signature (``runtime`` always included); ``None`` when it takes
    ``**kwargs`` and so accepts any name."""

    def __post_init__(self) -> None:
        if self.kind not in ("uds", "dds"):
            raise EngineError(f"solver kind must be 'uds' or 'dds', got {self.kind!r}")
        if self.guarantee not in ("exact", "2-approx", "heuristic"):
            raise EngineError(
                f"solver guarantee must be exact/2-approx/heuristic, got {self.guarantee!r}"
            )
        if self.cost not in COST_TAGS:
            raise EngineError(
                f"solver cost tag must be one of {COST_TAGS}, got {self.cost!r}"
            )
        if not self.summary:
            doc = (self.func.__doc__ or "").strip().splitlines()
            object.__setattr__(self, "summary", doc[0] if doc else self.name)
        params = list(inspect.signature(self.func).parameters.values())
        if not any(p.kind is p.VAR_KEYWORD for p in params):
            names = {
                p.name for p in params[1:]
                if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
            }
            object.__setattr__(self, "option_names", frozenset(names | {"runtime"}))

    def check_options(self, options: Mapping[str, Any]) -> None:
        """Raise :class:`~repro.errors.EngineError` on an option name the
        solver does not accept, naming it and the accepted ones."""
        if self.option_names is None:
            return
        unknown = [name for name in options if name not in self.option_names]
        if unknown:
            raise EngineError(
                f"solver {self.kind}:{self.name} has no option "
                f"{', '.join(map(repr, sorted(unknown)))}; it accepts "
                f"{', '.join(sorted(self.option_names))}"
            )

    def capability_flags(self) -> dict[str, bool]:
        """All capability names with their declared values.

        The same key set (``runtime``/``sanitize``/``seed``/``cluster``)
        the static contract verifier emits in its
        ``--contracts-manifest`` records, so declared-vs-inferred diffs
        are a dict comparison.
        """
        return {
            "runtime": self.supports_runtime,
            "sanitize": self.supports_sanitize,
            "seed": self.supports_seed,
            "cluster": self.supports_cluster,
        }

    @property
    def capabilities(self) -> tuple[str, ...]:
        """The supported capability names, for tables and reports."""
        return tuple(
            name for name, on in self.capability_flags().items() if on
        )


# The one solver store.  Keyed (kind, name); only register_solver /
# unregister_solver may touch it (R006 guards outside mutation).
_REGISTRY: dict[tuple[str, str], SolverSpec] = {}
_DISCOVERED = False

#: Modules whose import registers the canonical solver set.  Adding a new
#: solver module means decorating its entry point and, if it lives outside
#: these packages, listing it here — never editing a method dict.
_SOLVER_MODULES = (
    "repro.algorithms.undirected",
    "repro.algorithms.directed",
    "repro.core.pkmc",
    "repro.core.pwc",
    "repro.distributed",
)


def register_solver(
    name: str,
    *,
    kind: Kind,
    guarantee: Guarantee,
    cost: str,
    supports_runtime: bool = False,
    supports_sanitize: bool = False,
    supports_seed: bool = False,
    supports_cluster: bool = False,
    supports_shards: bool = False,
    supports_streaming: bool = False,
    default_options: dict[str, Any] | None = None,
    summary: str = "",
) -> Callable[[Callable], Callable]:
    """Class the decorated callable as a solver and add it to the registry.

    The callable is returned unchanged (direct calls keep working); a
    :class:`SolverSpec` describing it becomes available through
    :func:`get_solver` / :func:`solver_specs`.  Registering the same
    (kind, name) twice with a different callable raises
    :class:`~repro.errors.EngineError` — re-imports of the same module
    are idempotent.
    """

    def decorate(func: Callable) -> Callable:
        spec = SolverSpec(
            name=name,
            kind=kind,
            func=func,
            guarantee=guarantee,
            cost=cost,
            supports_runtime=supports_runtime,
            supports_sanitize=supports_sanitize,
            supports_seed=supports_seed,
            supports_cluster=supports_cluster,
            supports_shards=supports_shards,
            supports_streaming=supports_streaming,
            default_options=dict(default_options or {}),
            summary=summary,
        )
        key = (spec.kind, spec.name)
        existing = _REGISTRY.get(key)
        if existing is not None and existing.func is not func:
            raise EngineError(
                f"solver {spec.kind}:{spec.name} is already registered "
                f"by {existing.func.__module__}.{existing.func.__qualname__}"
            )
        _REGISTRY[key] = spec
        return func

    return decorate


def unregister_solver(kind: str, name: str) -> None:
    """Remove one spec from the registry (test scaffolding only)."""
    _REGISTRY.pop((kind, name), None)


class temporary_solver:
    """Context manager registering a spec for the ``with`` block only.

    Used by tests that need a throwaway solver without leaking it into
    the global registry.
    """

    def __init__(self, **register_kwargs: Any):
        self._kwargs = register_kwargs
        self._key: tuple[str, str] | None = None

    def __call__(self, func: Callable) -> "temporary_solver":
        self._func = func
        return self

    def __enter__(self) -> SolverSpec:
        register_solver(**self._kwargs)(self._func)
        self._key = (self._kwargs["kind"], self._kwargs["name"])
        return _REGISTRY[self._key]

    def __exit__(self, *exc_info: object) -> None:
        if self._key is not None:
            _REGISTRY.pop(self._key, None)


def _ensure_discovered() -> None:
    """Import the canonical solver modules once so decorators have run."""
    global _DISCOVERED
    if _DISCOVERED:
        return
    _DISCOVERED = True  # set first: solver modules may query the registry
    import importlib

    for module in _SOLVER_MODULES:
        importlib.import_module(module)


def get_solver(kind: str, name: str) -> SolverSpec:
    """Return the spec registered as (kind, name).

    Raises :class:`~repro.errors.AlgorithmError` with the historical
    "unknown UDS/DDS method" message on a miss, so registry lookups keep
    the error contract of the old hand-maintained dicts.
    """
    _ensure_discovered()
    spec = _REGISTRY.get((kind, name))
    if spec is None:
        raise AlgorithmError(
            f"unknown {kind.upper()} method {name!r}; "
            f"choose from {solver_names(kind)}"
        )
    return spec


def solver_names(kind: str) -> list[str]:
    """Sorted registry names of one kind."""
    _ensure_discovered()
    return sorted(name for k, name in _REGISTRY if k == kind)


def solver_specs(kind: str | None = None) -> Iterator[SolverSpec]:
    """Iterate registered specs (optionally one kind), sorted by key."""
    _ensure_discovered()
    for key in sorted(_REGISTRY):
        if kind is None or key[0] == kind:
            yield _REGISTRY[key]


def registry_manifest() -> list[dict]:
    """Runtime capability manifest: one record per registered solver.

    The dynamic counterpart of the static verifier's
    ``--contracts-manifest``: same sort order (kind, name) and the same
    ``capability_flags`` schema, so tests can assert the decorator
    literals the dataflow pass extracted match what actually registered.
    """
    _ensure_discovered()
    return [
        {
            "kind": spec.kind,
            "name": spec.name,
            "function": spec.func.__qualname__,
            "module": spec.func.__module__,
            "guarantee": spec.guarantee,
            "cost": spec.cost,
            "capabilities": spec.capability_flags(),
        }
        for spec in solver_specs()
    ]
