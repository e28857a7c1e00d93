"""Shared-memory h-index sweep solvers, pinned value for value.

``sweep_pinned.json`` holds what ``pkmc`` (Jacobi, Gauss–Seidel
``degree_order`` and the ``early_stop=False`` ablation) and ``local``
returned on a few seeded graphs at 1, 4 and 32 simulated threads.
Answers, densities, k*, sweep counts and the Theorem-1 ``(h_max, s)``
history must match exactly, so any change to which vertices a sweep
recomputes must leave the per-sweep arrays untouched.  The simulated
clock is compared at ``rel=1e-12`` because the cost model may sum its
terms in a different order.

Rewrite the file (``python tests/core/test_sweep_pinned.py >
tests/core/sweep_pinned.json``) only for an intended change to the
algorithms or the cost model.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.algorithms.undirected.local import local_uds
from repro.core.pkmc import pkmc
from repro.graph import (
    chung_lu_undirected,
    gnm_random_undirected,
    planted_dense_subgraph,
)
from repro.runtime.simruntime import SimRuntime

PINNED = Path(__file__).with_name("sweep_pinned.json")
THREADS = (1, 4, 32)

GRAPHS = {
    "chung-lu-1500": lambda: chung_lu_undirected(1_500, 6_000, seed=91),
    "planted-400": lambda: planted_dense_subgraph(
        400, 1_600, 30, core_probability=0.7, seed=93
    )[0],
    "gnm-150": lambda: gnm_random_undirected(150, 600, seed=92),
}

SOLVERS = {
    "pkmc": lambda g, rt: pkmc(g, runtime=rt),
    "pkmc-degree-order": lambda g, rt: pkmc(g, runtime=rt, sweep="degree_order"),
    "pkmc-no-early-stop": lambda g, rt: pkmc(g, runtime=rt, early_stop=False),
    "local": lambda g, rt: local_uds(g, runtime=rt),
}


def _case(solver: str, name: str, threads: int) -> dict:
    result = SOLVERS[solver](GRAPHS[name](), SimRuntime(num_threads=threads))
    observed = {
        "vertices": result.vertices.tolist(),
        "k_star": int(result.k_star),
        "density": result.density,
        "iterations": result.iterations,
        "simulated_seconds": result.simulated_seconds,
    }
    if "history" in result.extras:
        observed["history"] = [list(entry) for entry in result.extras["history"]]
    return observed


CASES = [
    f"{solver}/{name}/p{threads}"
    for solver in SOLVERS
    for name in GRAPHS
    for threads in THREADS
]


def _parse(case_id: str) -> tuple[str, str, int]:
    solver, name, threads = case_id.split("/")
    return solver, name, int(threads[1:])


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_sweep_solver_pinned(pinned, case):
    observed, expected = _case(*_parse(case)), pinned[case]
    assert observed.keys() == expected.keys()
    for key, value in expected.items():
        if key == "simulated_seconds":
            assert observed[key] == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert observed[key] == value, key


if __name__ == "__main__":
    # One case per line keeps the file reviewable in a diff.
    rows = ",\n".join(
        f" {json.dumps(case)}: {json.dumps(_case(*_parse(case)))}" for case in CASES
    )
    sys.stdout.write("{\n" + rows + "\n}\n")
