"""R001 — no wall clock, no unseeded randomness.

The simulated runtime's contract (see ``runtime/simruntime.py``) is that a
given (algorithm, graph, p) triple always yields the same simulated time,
so nothing under ``src/repro`` may consult the wall clock or an unseeded
random source.  Benchmark code that deliberately measures real elapsed
time suppresses this rule inline (``# repro-lint: disable=R001``).
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["DeterminismRule"]

# Fully-resolved call targets that read the wall clock.
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
    "time.clock",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

# Functions of the stdlib ``random`` module that draw from (or reseed) the
# hidden global generator.
_GLOBAL_RANDOM_FUNCS = {
    "betavariate",
    "choice",
    "choices",
    "expovariate",
    "gauss",
    "getrandbits",
    "lognormvariate",
    "normalvariate",
    "paretovariate",
    "randbytes",
    "randint",
    "random",
    "randrange",
    "sample",
    "seed",
    "shuffle",
    "triangular",
    "uniform",
    "vonmisesvariate",
    "weibullvariate",
}

# numpy.random attributes that are fine to touch: explicit generator /
# seeding machinery (default_rng is checked separately for a seed arg).
_NUMPY_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                    "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"}


class _ImportAliases(ast.NodeVisitor):
    """Collects a best-effort alias -> dotted-module-path map."""

    def __init__(self) -> None:
        self.aliases: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:  # relative imports: in-project
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def _dotted_name(node: ast.expr) -> str | None:
    """Return ``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class DeterminismRule(Rule):
    """R001: flag wall-clock reads and unseeded randomness."""

    rule_id = "R001"
    title = "no wall clock or unseeded randomness in simulation code"
    severity = "error"
    fix_hint = (
        "simulation code must be deterministic: use SimRuntime.now for time "
        "and np.random.default_rng(seed) with an explicit seed for randomness"
    )

    def visit_Module(self, node: ast.Module) -> None:
        """Collect import aliases first, then walk the module body."""
        collector = _ImportAliases()
        collector.visit(node)
        self._aliases = collector.aliases
        self.generic_visit(node)

    def _resolve(self, node: ast.expr) -> str | None:
        dotted = _dotted_name(node)
        if dotted is None:
            return None
        root, _, rest = dotted.partition(".")
        expansion = self._aliases.get(root)
        if expansion is None:
            return dotted
        return f"{expansion}.{rest}" if rest else expansion

    @staticmethod
    def _has_seed_argument(node: ast.Call) -> bool:
        if node.args and not isinstance(node.args[0], ast.Starred):
            return True
        return any(kw.arg in ("seed", "x") or kw.arg is None for kw in node.keywords)

    def visit_Call(self, node: ast.Call) -> None:
        """Check each call site against the banned-target tables."""
        target = self._resolve(node.func)
        if target is not None:
            self._check_target(node, target)
        self.generic_visit(node)

    def _check_target(self, node: ast.Call, target: str) -> None:
        if target in _WALL_CLOCK:
            self.report(node, f"wall-clock call {target}() breaks simulation determinism")
            return
        if target in ("numpy.random.default_rng", "numpy.random.Generator"):
            if target.endswith("default_rng") and not self._has_seed_argument(node):
                self.report(node, "numpy.random.default_rng() without an explicit seed")
            return
        if target.startswith("numpy.random."):
            attr = target.rsplit(".", 1)[1]
            if attr not in _NUMPY_RANDOM_OK:
                self.report(
                    node,
                    f"legacy global numpy RNG call {target}() (hidden, unseeded state)",
                )
            return
        if target == "random.Random" and not self._has_seed_argument(node):
            self.report(node, "random.Random() without an explicit seed")
            return
        if target.startswith("random."):
            attr = target.rsplit(".", 1)[1]
            if attr in _GLOBAL_RANDOM_FUNCS:
                self.report(
                    node,
                    f"stdlib global-RNG call {target}() (process-wide hidden state)",
                )
