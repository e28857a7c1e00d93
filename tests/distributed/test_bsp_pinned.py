"""In-memory pkmc-bsp / pwc-bsp outputs, pinned value for value.

``bsp_pinned.json`` holds what the hash-partitioned BSP solvers returned
on a few seeded graphs for every combination of worker count and stop
option.  Answers, densities, superstep traces, message totals and the
partition's cross-edge fraction must match exactly.  The simulated
clock is compared at ``rel=1e-12`` because the cost accountant may sum
its compute, exchange and overhead terms in a different order.

Rewrite the file (``python tests/distributed/test_bsp_pinned.py >
tests/distributed/bsp_pinned.json``) only for an intended change to the
algorithms or the cost model.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.distributed import ClusterConfig, distributed_pkmc, distributed_pwc
from repro.graph import (
    chung_lu_directed,
    chung_lu_undirected,
    gnm_random_directed,
    gnm_random_undirected,
)
from repro.graph.generators import planted_dense_subgraph

PINNED = Path(__file__).with_name("bsp_pinned.json")
WORKERS = (1, 4, 16)

UNDIRECTED = {
    "chung-lu-500": lambda: chung_lu_undirected(500, 2_500, seed=81),
    "planted-400": lambda: planted_dense_subgraph(
        400, 1_600, 30, core_probability=0.7, seed=83
    )[0],
    "gnm-120": lambda: gnm_random_undirected(120, 480, seed=82),
}
DIRECTED = {
    "chung-lu-300": lambda: chung_lu_directed(300, 1_500, seed=83),
    "gnm-120": lambda: gnm_random_directed(120, 600, seed=84),
}


def _pkmc_case(name: str, workers: int, early_stop: bool) -> dict:
    result = distributed_pkmc(
        UNDIRECTED[name](), ClusterConfig(num_workers=workers),
        early_stop=early_stop,
    )
    extras = result.extras
    return {
        "vertices": result.vertices.tolist(),
        "k_star": int(result.k_star),
        "density": result.density,
        "iterations": result.iterations,
        "supersteps": extras["supersteps"],
        "total_messages": extras["total_messages"],
        "history": [list(entry) for entry in extras["history"]],
        "cross_edge_fraction": extras["cross_edge_fraction"],
        "early_stop_fired": extras["early_stop_fired"],
        "simulated_seconds": result.simulated_seconds,
    }


def _pwc_case(name: str, workers: int, start_at_dmax: bool) -> dict:
    result = distributed_pwc(
        DIRECTED[name](), ClusterConfig(num_workers=workers),
        start_at_dmax=start_at_dmax,
    )
    extras = result.extras
    return {
        "s": result.s.tolist(),
        "t": result.t.tolist(),
        "x": int(result.x),
        "y": int(result.y),
        "w_star": int(result.w_star),
        "density": result.density,
        "iterations": result.iterations,
        "supersteps": extras["supersteps"],
        "total_messages": extras["total_messages"],
        "cross_edge_fraction": extras["cross_edge_fraction"],
        "size_first": extras["size_first"],
        "size_wstar": extras["size_wstar"],
        "simulated_seconds": result.simulated_seconds,
    }


def _case_ids(graphs: dict, flag: str) -> list[str]:
    return [
        f"{name}/w{workers}/{flag}={value}"
        for name in graphs
        for workers in WORKERS
        for value in (True, False)
    ]


def _parse(case_id: str) -> tuple[str, int, bool]:
    name, workers, flag = case_id.split("/")
    return name, int(workers[1:]), flag.endswith("True")


PKMC_CASES = _case_ids(UNDIRECTED, "early_stop")
PWC_CASES = _case_ids(DIRECTED, "start_at_dmax")


def _observe_all() -> dict:
    return {
        "pkmc": {case: _pkmc_case(*_parse(case)) for case in PKMC_CASES},
        "pwc": {case: _pwc_case(*_parse(case)) for case in PWC_CASES},
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def _assert_matches(observed: dict, expected: dict) -> None:
    assert observed.keys() == expected.keys()
    for key, value in expected.items():
        if key == "simulated_seconds":
            assert observed[key] == pytest.approx(value, rel=1e-12, abs=0.0)
        else:
            assert observed[key] == value, key


@pytest.mark.parametrize("case", PKMC_CASES)
def test_pkmc_bsp_pinned(pinned, case):
    _assert_matches(_pkmc_case(*_parse(case)), pinned["pkmc"][case])


@pytest.mark.parametrize("case", PWC_CASES)
def test_pwc_bsp_pinned(pinned, case):
    _assert_matches(_pwc_case(*_parse(case)), pinned["pwc"][case])


if __name__ == "__main__":
    # One case per line keeps the file reviewable in a diff.
    blocks = []
    for kind, cases in _observe_all().items():
        rows = ",\n".join(
            f"  {json.dumps(case)}: {json.dumps(values)}"
            for case, values in cases.items()
        )
        blocks.append(f" {json.dumps(kind)}: {{\n{rows}\n }}")
    sys.stdout.write("{\n" + ",\n".join(blocks) + "\n}\n")
