"""Registry completeness and SolverSpec invariants.

The registry must discover every solver entry point in the canonical
solver packages exactly once — no orphan ``*_uds`` / ``*_dds`` function,
no double registration — and ``SolverSpec`` must reject malformed
declarations at import time.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

from repro.engine.spec import (
    SolverSpec,
    get_solver,
    register_solver,
    solver_names,
    solver_specs,
    temporary_solver,
)
from repro.errors import AlgorithmError, EngineError

# The canonical solver packages/modules (mirrors spec._SOLVER_MODULES).
SOLVER_PACKAGES = ("repro.algorithms.undirected", "repro.algorithms.directed",
                   "repro.distributed")
SOLVER_MODULES = ("repro.core.pkmc", "repro.core.pwc")

# Entry-point naming convention (mirrors lint rule R006).
EXACT_NAMES = {"pkmc", "pwc", "distributed_pkmc", "distributed_pwc"}
NAME_SUFFIXES = ("_uds", "_dds")

# Solver-shaped functions deliberately kept out of the registry, with why.
# (Currently none.)
UNREGISTERED_ALLOWED: set = set()


def iter_solver_functions():
    """Yield (module_name, function_name) for every solver entry point."""
    for package_name in SOLVER_PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            yield from _module_entry_points(f"{package_name}.{info.name}")
    for module_name in SOLVER_MODULES:
        yield from _module_entry_points(module_name)


def _module_entry_points(module_name):
    module = importlib.import_module(module_name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            if node.name in EXACT_NAMES or node.name.endswith(NAME_SUFFIXES):
                yield module_name, node.name


class TestCompleteness:
    def test_every_solver_entry_point_is_registered(self):
        registered = {spec.func for spec in solver_specs()}
        missing = []
        for module_name, func_name in iter_solver_functions():
            if func_name in UNREGISTERED_ALLOWED:
                continue
            func = getattr(importlib.import_module(module_name), func_name)
            if func not in registered:
                missing.append(f"{module_name}.{func_name}")
        assert missing == [], f"solver entry points not registered: {missing}"

    def test_each_callable_registered_exactly_once(self):
        funcs = [spec.func for spec in solver_specs()]
        assert len(funcs) == len(set(funcs))

    def test_registry_keys_unique_per_kind(self):
        for kind in ("uds", "dds"):
            names = solver_names(kind)
            assert names == sorted(set(names))

    def test_expected_method_sets(self):
        assert solver_names("uds") == [
            "binary-search", "brute-force", "charikar", "core-exact", "exact",
            "greedypp", "local", "max-truss", "pbu", "pfw", "pkc", "pkmc",
            "pkmc-bsp",
        ]
        assert solver_names("dds") == [
            "brute-force", "exact", "exact-core", "pbd", "pbs", "pfks",
            "pfw", "pwc", "pwc-bsp", "pxy",
        ]

    def test_paper_algorithms_have_expected_capabilities(self):
        pkmc = get_solver("uds", "pkmc")
        assert pkmc.guarantee == "2-approx" and pkmc.cost == "parallel"
        assert set(pkmc.capabilities) >= {"runtime", "sanitize"}
        pwc = get_solver("dds", "pwc")
        assert set(pwc.capabilities) >= {"runtime"}
        for name in ("pkmc-bsp",):
            assert get_solver("uds", name).supports_cluster
        assert get_solver("dds", "pwc-bsp").supports_cluster
        for kind in ("uds", "dds"):
            exact = get_solver(kind, "exact")
            assert exact.guarantee == "exact" and exact.cost == "serial"


class TestLookup:
    def test_unknown_method_keeps_historical_message(self):
        with pytest.raises(AlgorithmError, match="unknown UDS method 'nope'"):
            get_solver("uds", "nope")
        with pytest.raises(AlgorithmError, match="unknown DDS method"):
            get_solver("dds", "nope")

    def test_summary_defaults_to_docstring_first_line(self):
        spec = get_solver("uds", "charikar")
        assert spec.summary
        assert "\n" not in spec.summary


class TestSpecValidation:
    def _solver(self, graph):
        """Throwaway solver body."""
        return None

    def test_bad_kind_rejected(self):
        with pytest.raises(EngineError, match="kind"):
            SolverSpec(name="x", kind="tds", func=self._solver,
                       guarantee="exact", cost="serial")

    def test_bad_guarantee_rejected(self):
        with pytest.raises(EngineError, match="guarantee"):
            SolverSpec(name="x", kind="uds", func=self._solver,
                       guarantee="3-approx", cost="serial")

    def test_bad_cost_tag_rejected(self):
        with pytest.raises(EngineError, match="cost tag"):
            SolverSpec(name="x", kind="uds", func=self._solver,
                       guarantee="exact", cost="quantum")

    def test_duplicate_registration_rejected(self):
        def one(graph):
            """One."""

        def other(graph):
            """Other."""

        with temporary_solver(name="dupe", kind="uds", guarantee="exact",
                              cost="serial")(one):
            with pytest.raises(EngineError, match="already registered"):
                register_solver("dupe", kind="uds", guarantee="exact",
                                cost="serial")(other)

    def test_reregistering_same_callable_is_idempotent(self):
        def one(graph):
            """One."""

        deco = register_solver("idem", kind="uds", guarantee="exact",
                               cost="serial")
        try:
            deco(one)
            deco(one)  # simulates a module re-import
            assert get_solver("uds", "idem").func is one
        finally:
            from repro.engine.spec import unregister_solver
            unregister_solver("uds", "idem")

    def test_temporary_solver_cleans_up(self):
        def one(graph):
            """One."""

        with temporary_solver(name="fleeting", kind="dds", guarantee="exact",
                              cost="serial")(one) as spec:
            assert get_solver("dds", "fleeting") is spec
        with pytest.raises(AlgorithmError):
            get_solver("dds", "fleeting")
