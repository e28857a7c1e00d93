"""Every top-level definition and public method in ``src/repro`` is reached
from an entry point.

A definition counts as reached when a root names it, or when the body of
a reached definition does, iterated to a fixpoint.  The roots are what
runs outside the test suite:

* module-level code of ``src/repro`` (imports and ``__all__`` excluded),
  including identifier-like string constants, which covers the lazy
  export tables, the backend registry and the harness tables;
* decorated top-level definitions (``@register_solver``, rule
  registration, dataclasses) and dunder functions such as a module's
  ``__getattr__``, which Python calls itself;
* every name in ``perfbench/``, ``benchmarks/`` and ``examples/``;
* the ``[project.scripts]`` targets in ``pyproject.toml``.

A public method of a top-level class is a definition of its own, whose
body counts only once the method is reached.  The rest of the class,
including its private methods and the decorated, dunder and ``visit_*``
methods that Python or ``ast.NodeVisitor`` call without naming them, is
reached with the class.  Matching is by bare name, so a name shared by
two definitions reaches both: the check errs toward "reached".  A
definition that only tests reach must either be deleted or be listed in
:data:`ORACLES` (methods as ``Class.method``) with the test that uses it
as an oracle for other code.
"""

import ast
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"
PROGRAM_DIRS = ("perfbench", "benchmarks", "examples")

#: Unreached definitions kept on purpose: name -> (test file, why).
ORACLES = {
    "winduced_decomposition": (
        "tests/core/test_winduced.py",
        "Algorithm 3's serial induce-number peel, checked against "
        "winduced_subgraph",
    ),
    "edge_weights": (
        "tests/core/test_winduced_levels.py",
        "per-edge weights that check wstar_subgraph's w* level",
    ),
    "gnm_random_directed": (
        "tests/core/test_pwc.py",
        "the random digraphs of the property tests, including the "
        "Theorem-2 gap graph",
    ),
    "powerlaw_exponent_estimate": (
        "tests/datasets/test_registry.py",
        "Hill estimator that checks the replicas' degree tails",
    ),
    "registry_manifest": (
        "tests/analysis/test_contracts.py",
        "runtime solver manifest the static contracts manifest must equal",
    ),
    "temporary_solver": (
        "tests/engine/test_run.py",
        "registers a throwaway solver for one engine test",
    ),
    "unregister_solver": (
        "tests/engine/test_registry.py",
        "undoes a test registration",
    ),
    "env_at": (
        "tests/analysis/test_dataflow.py",
        "reads the reaching-definitions environment at one CFG node",
    ),
    "int64_forced": (
        "tests/store/test_compact.py",
        "reports the forced-int64 switch that index_dtype honours",
    ),
    "result_from_dict": (
        "tests/bench/test_serialization.py",
        "reads back what save_json writes",
    ),
    "load_json": (
        "tests/bench/test_serialization.py",
        "reads back what save_json writes",
    ),
    "inplace_sweep": (
        "tests/kernels/test_frontier.py",
        "sequential Gauss-Seidel sweep that frontier_inplace_sweep must "
        "match sweep by sweep",
    ),
    "declare_order_dependent": (
        "tests/analysis/test_race.py",
        "sets the mark observe_parfor reads; inplace_sweep's sanitized "
        "kernel carries it",
    ),
    "UndirectedGraph.has_edge": (
        "tests/stream/test_session.py",
        "checks the stream window's edges against the graph",
    ),
    "UndirectedGraph.relabeled": (
        "tests/core/test_pkmc.py",
        "relabelled copies for PKMC's relabel-invariance check",
    ),
    "DirectedGraph.has_edge": (
        "tests/graph/test_io.py",
        "checks the orientation the directed edge-list reader keeps",
    ),
    "DirectedGraph.st_induced_subgraph": (
        "tests/core/test_pwc.py",
        "the S x T block a PWC answer's density is checked on",
    ),
    "TokenBucket.peek": (
        "tests/serve/test_quota.py",
        "reads the token level that try_take's refill and rejection "
        "tests check",
    ),
    "ShardedGraph.resident_shards": (
        "tests/store/test_shard_store.py",
        "lists the resident shards the LRU eviction test checks",
    ),
}


def _names(node: ast.AST) -> set[str]:
    """Names, attribute names and identifier-like strings under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def _script_targets() -> set[str]:
    """Function names of the ``[project.scripts]`` entries (``mod:func``)."""
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'=\s*"[\w.]+:(\w+)"', table))


def _is_all(stmt: ast.stmt) -> bool:
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_public_method(stmt: ast.stmt) -> bool:
    """A method callers must name: not private, dunder, decorated or a
    ``visit_*`` hook."""
    return (
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
        and not stmt.name.startswith("visit_")
        and not stmt.decorator_list
    )


def _class_body(cls: ast.ClassDef, where: str, definitions) -> list[ast.AST]:
    """Add ``cls``'s public methods to ``definitions``; return the nodes
    the class itself reaches."""
    rest: list[ast.AST] = [*cls.bases, *cls.keywords, *cls.decorator_list]
    for stmt in cls.body:
        if _is_public_method(stmt):
            site = (where, f"{cls.name}.{stmt.name}", [stmt])
            definitions.setdefault(stmt.name, []).append(site)
        else:
            rest.append(stmt)
    return rest


@functools.lru_cache(maxsize=None)
def _scan():
    """Return ``(definitions, reached)``.

    ``definitions`` maps a bare name to its ``(file, qualname, nodes)``
    sites; ``nodes`` is what the definition reaches once it is reached.
    """
    definitions: dict[str, list[tuple[str, str, list[ast.AST]]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        where = str(path.relative_to(SRC.parent))
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nodes = (
                    _class_body(stmt, where, definitions)
                    if isinstance(stmt, ast.ClassDef)
                    else [stmt]
                )
                definitions.setdefault(stmt.name, []).append((where, stmt.name, nodes))
                dunder = stmt.name.startswith("__") and stmt.name.endswith("__")
                if stmt.decorator_list or dunder:
                    roots.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and _is_all(stmt):
                continue
            else:
                roots |= _names(stmt)
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            roots |= _names(ast.parse(path.read_text(encoding="utf-8")))
    roots |= _script_targets()

    reached: set[str] = set()
    pending = [name for name in roots if name in definitions]
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, _, nodes in definitions[name]:
            for node in nodes:
                pending.extend(n for n in _names(node) if n in definitions)
    return definitions, frozenset(reached)


def test_only_allowlisted_oracles_are_unreached():
    definitions, reached = _scan()
    sites = sorted(
        f"{where}::{qualname}"
        for name in set(definitions) - reached
        for where, qualname, _ in definitions[name]
        if qualname not in ORACLES
    )
    assert not sites, (
        "no entry point reaches these definitions; delete them, or list "
        f"them in ORACLES with the test that uses them: {sites}"
    )


def test_allowlist_is_not_stale():
    definitions, reached = _scan()
    defined = {qualname for sites in definitions.values() for _, qualname, _ in sites}
    missing = sorted(key for key in ORACLES if key not in defined)
    assert not missing, f"ORACLES lists names src/repro no longer defines: {missing}"
    now_reached = sorted(key for key in ORACLES if key.rpartition(".")[2] in reached)
    assert not now_reached, (
        f"ORACLES lists names an entry point now reaches: {now_reached}"
    )


def test_console_scripts_are_parsed():
    # Every repro-* console script points at a module's ``main``.
    assert _script_targets() == {"main"}


def test_each_oracle_is_used_by_its_test():
    for key, (test_file, _) in ORACLES.items():
        text = (REPO / test_file).read_text(encoding="utf-8")
        assert key.rpartition(".")[2] in text, f"{test_file} no longer uses {key}"
