"""Sharded-engine bench-regression harness (``repro-bench shard``).

Runs ``pkmc-bsp`` and ``pwc-bsp`` twice each on the 360k-edge bench
replicas — once on the monolithic in-memory CSR, once out-of-core
through a budgeted :class:`~repro.store.shard.ShardedGraph` — and gates
three properties the sharded substrate promises:

* **bit identity** — densities, decompositions (core / S,T sets) and
  superstep counts must match the monolithic run exactly; sharding is a
  storage layout, never an algorithm change.  (Simulated seconds are
  *not* required to match: the monolithic accountant round-robins
  vertex ownership across workers while the sharded one charges per
  contiguous shard, so the two cost models partition work differently.
  The sharded clock is still deterministic and pinned to the baseline.)
* **bounded residency** — the facade's ``peak_resident_bytes`` must stay
  under :data:`MEMORY_BUDGET_BYTES` while the monolithic CSR of the same
  graph *exceeds* that budget, proving the run genuinely worked
  out-of-core rather than fitting trivially;
* **separated cost accounting** — the BSP accountant must attribute
  strictly positive time to both compute and boundary exchange, and the
  two plus overhead must reconstruct the simulated total.

Every gated number is deterministic (seeded graphs, cost model, eviction
order), so ``HARNESS`` pins them exactly against the committed
``BENCH_shard.json`` — no tolerances, any drift is a real behaviour
change.
"""

from __future__ import annotations

import tempfile

import numpy as np

from ..distributed import distributed_pkmc, distributed_pwc
from ..graph.generators import chung_lu_directed, chung_lu_undirected
from ..store.shard import load_sharded, save_sharded
from .gates import FLAG, PIN, Gate, Harness

__all__ = [
    "run_shard_bench",
    "render_shard_report",
    "HARNESS",
    "SHARD_COUNT",
    "MEMORY_BUDGET_BYTES",
]

#: Shards per bench graph; matches the ``repro-dsd --shards`` default.
SHARD_COUNT = 8

#: Resident-bytes cap (2.5 MiB).  Sits between the sharded peak
#: (~2.06 MB measured) and the monolithic undirected CSR (~3.12 MB bare;
#: the payload's ``monolithic_bytes`` is measured after a solver run, so
#: it also counts solver-warmed scratch), proving the monolithic layout
#: cannot fit where the facade does.  Deliberately forces eviction
#: churn: with ~1 MB shards only two stay resident, so ``shard_loads``
#: far exceeds ``num_shards``.
MEMORY_BUDGET_BYTES = 2_621_440

#: (kind, vertices, edges, chung-lu seed).  The undirected workload is
#: the backend bench's gated "large" replica; the directed one reuses
#: its size with a different seed stream.
WORKLOADS = (
    ("undirected", 60_000, 360_000, 11),
    ("directed", 60_000, 360_000, 13),
)


def _memory_block(graph, sharded, budget: int) -> dict:
    """Residency gate numbers for one solver run on ``sharded``."""
    stats = sharded.stats()
    peak = int(stats["peak_resident_bytes"])
    monolithic_bytes = int(graph.memory_bytes())
    return {
        "monolithic_bytes": monolithic_bytes,
        "budget_bytes": budget,
        "peak_resident_bytes": peak,
        "shard_loads": int(stats["shard_loads"]),
        "evictions": int(stats["evictions"]),
        "under_budget": peak <= budget,
        "monolithic_exceeds_budget": monolithic_bytes > budget,
    }


def _cost_block(result) -> dict:
    """Superstep cost split for one sharded run, with the split gate."""
    extras = result.extras
    compute = float(extras["compute_seconds"])
    exchange = float(extras["exchange_seconds"])
    overhead = float(extras["overhead_seconds"])
    total = float(result.simulated_seconds)
    return {
        "compute_seconds": compute,
        "exchange_seconds": exchange,
        "overhead_seconds": overhead,
        "boundary_messages_bytes": int(
            extras["shard_stats"]["boundary_messages_bytes"]
        ),
        "cross_edge_fraction": float(extras["cross_edge_fraction"]),
        "separated": (
            compute > 0.0
            and exchange > 0.0
            and abs(compute + exchange + overhead - total) <= 1e-9 * total
        ),
    }


def _bench_pkmc(shards: int, budget: int, tmp: str) -> dict:
    """PKMC-BSP monolithic-vs-sharded identity + residency + cost."""
    _, num_vertices, num_edges, seed = WORKLOADS[0]
    graph = chung_lu_undirected(num_vertices, num_edges, seed=seed)
    save_sharded(graph, tmp, shards=shards)
    sharded = load_sharded(tmp, memory_budget_bytes=budget)

    mono = distributed_pkmc(graph)
    shard = distributed_pkmc(sharded)
    identical = (
        mono.density == shard.density  # repro-lint: disable=R004 (bit-identity is the gate)
        and mono.k_star == shard.k_star
        and mono.iterations == shard.iterations
        and np.array_equal(mono.vertices, shard.vertices)
        and mono.extras["history"] == shard.extras["history"]
        and mono.extras["supersteps"] == shard.extras["supersteps"]
    )
    return {
        "workload": {
            "num_vertices": num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
        },
        "density": shard.density,
        "k_star": int(shard.k_star),
        "core_size": int(shard.num_vertices),
        "supersteps": int(shard.extras["supersteps"]),
        "simulated_seconds": float(shard.simulated_seconds),
        "identical": identical,
        "memory": _memory_block(graph, sharded, budget),
        "cost": _cost_block(shard),
    }


def _bench_pwc(shards: int, budget: int, tmp: str) -> dict:
    """PWC-BSP monolithic-vs-sharded identity + residency + cost."""
    _, num_vertices, num_edges, seed = WORKLOADS[1]
    graph = chung_lu_directed(num_vertices, num_edges, seed=seed)
    save_sharded(graph, tmp, shards=shards)
    sharded = load_sharded(tmp, memory_budget_bytes=budget)

    mono = distributed_pwc(graph)
    shard = distributed_pwc(sharded)
    identical = (
        mono.density == shard.density  # repro-lint: disable=R004 (bit-identity is the gate)
        and mono.w_star == shard.w_star
        and (mono.x, mono.y) == (shard.x, shard.y)
        and np.array_equal(mono.s, shard.s)
        and np.array_equal(mono.t, shard.t)
        and mono.iterations == shard.iterations
        and mono.extras["supersteps"] == shard.extras["supersteps"]
    )
    return {
        "workload": {
            "num_vertices": num_vertices,
            "num_edges": graph.num_edges,
            "seed": seed,
        },
        "density": shard.density,
        "w_star": int(shard.w_star),
        "x": int(shard.x),
        "y": int(shard.y),
        "s_size": int(shard.s_size),
        "t_size": int(shard.t_size),
        "levels": int(shard.iterations),
        "supersteps": int(shard.extras["supersteps"]),
        "simulated_seconds": float(shard.simulated_seconds),
        "identical": identical,
        "memory": _memory_block(graph, sharded, budget),
        "cost": _cost_block(shard),
    }


def run_shard_bench(
    shards: int = SHARD_COUNT, budget: int = MEMORY_BUDGET_BYTES
) -> dict:
    """Run both gates; return the ``BENCH_shard.json`` payload.

    ``shards`` / ``budget`` exist so tests can exercise the harness on
    other configurations; the committed baseline always uses the module
    defaults.
    """
    with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as tmp_u:
        pkmc = _bench_pkmc(shards, budget, tmp_u)
    with tempfile.TemporaryDirectory(prefix="repro-shard-bench-") as tmp_d:
        pwc = _bench_pwc(shards, budget, tmp_d)
    return {
        "schema": 1,
        "config": {"shards": shards, "memory_budget_bytes": budget},
        "pkmc": pkmc,
        "pwc": pwc,
    }


def render_shard_report(payload: dict) -> str:
    """Readable summary of a shard-bench payload."""
    config = payload["config"]
    lines = [
        f"shard bench (P={config['shards']}, "
        f"budget={config['memory_budget_bytes']} B)",
    ]
    for name, block in (("pkmc-bsp", payload["pkmc"]),
                        ("pwc-bsp", payload["pwc"])):
        workload = block["workload"]
        memory = block["memory"]
        cost = block["cost"]
        flag = "ok" if block["identical"] else "DIVERGED"
        lines.append(
            f"  {name:<8}: {workload['num_vertices']:>6} v / "
            f"{workload['num_edges']:>6} e | density {block['density']:.6g} "
            f"| identity {flag}"
        )
        lines.append(
            f"    resident peak {memory['peak_resident_bytes']:>9} B "
            f"<= budget {memory['budget_bytes']} B "
            f"< monolithic {memory['monolithic_bytes']} B | "
            f"loads={memory['shard_loads']} evictions={memory['evictions']}"
        )
        lines.append(
            f"    cost: compute {cost['compute_seconds']:.4g}s + exchange "
            f"{cost['exchange_seconds']:.4g}s + overhead "
            f"{cost['overhead_seconds']:.4g}s | boundary "
            f"{cost['boundary_messages_bytes']} B "
            f"(cross-edge frac {cost['cross_edge_fraction']:.3f})"
        )
    return "\n".join(lines)


def _solver_gates(block: str, name: str, decomposition: tuple) -> tuple:
    """Gate rows of one solver block: flags, counter and decomposition pins."""
    flags = {
        "identical": "sharded run is not bit-identical to monolithic",
        "memory.under_budget": "peak resident bytes exceed the budget",
        "memory.monolithic_exceeds_budget":
            "monolithic CSR fits the budget; the out-of-core gate proves nothing",
        "cost.separated":
            "superstep accounting does not separate compute from boundary exchange",
    }
    pinned = (
        "density", "simulated_seconds", "supersteps", "cost.boundary_messages_bytes",
        "memory.shard_loads", "memory.evictions", "memory.peak_resident_bytes",
        "memory.monolithic_bytes", *decomposition,
    )
    return (
        *(Gate(FLAG, f"{block}.{key}", f"{name}: {text}") for key, text in flags.items()),
        *(Gate(PIN, f"{block}.{key}", f"{name}: {key} drifted from baseline")
          for key in pinned),
    )


HARNESS = Harness(
    "shard", run_shard_bench, render_shard_report, gates=(
        Gate(PIN, "config.*", "bench configuration changed"),
        *_solver_gates("pkmc", "pkmc-bsp", ("k_star", "core_size")),
        *_solver_gates("pwc", "pwc-bsp", ("w_star", "x", "y", "s_size", "t_size", "levels")),
    ),
)
