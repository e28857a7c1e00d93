"""Serving-layer traffic-replay harness (``repro-bench serve``).

Replays seeded Zipf-skewed query mixes (:mod:`repro.serve.workload`)
against two executions of the *same* stream:

* **serial baseline** — every query individually through
  :func:`repro.engine.run`, no cache, no coalescing, no batching: what
  the repo did before :mod:`repro.serve` existed (one query per process
  invocation, minus process startup);
* **served** — a :class:`repro.serve.DsdServer` replaying the stream in
  submission waves, with single-flight coalescing, per-graph batching
  and the TTL result cache.

Three mixes are measured — ``hot-graph`` (Zipf-skewed dataset choice,
the headline many-users-one-dataset case and the acceptance gate),
``hot-solver`` and ``uniform`` — reporting sustained queries/sec and
p50/p99 submit-to-completion latency for both sides.  Before any
timing, every served response is checked **bit-identical** to a direct
engine run of the same query (vertices, density, iterations), so the
speedups can never come from answering a different question.

A fourth *overload* scenario drives waves larger than the admission
queue through a server with a tight queue bound and a throttled tenant:
the gate asserts structured shedding (both ``queue_full`` and ``quota``
rejections occur), that the observed queue depth never exceeds the
bound, and that accepted-query p99 latency stays under the structural
bound ``max_queue_depth x max_single_solve`` — the "no unbounded queue
growth" half of the serving story.

``HARNESS`` registers the harness with :mod:`repro.bench.gates`: the
committed ``BENCH_serve.json`` gate compares speedup ratios and
structural booleans, never raw seconds.
"""

from __future__ import annotations

import time

import numpy as np

from ..engine import ExecutionContext
from ..engine import run as engine_run
from ..graph import chung_lu_undirected
from ..serve import DsdServer, TenantQuotas, build_query_mix
from ..serve.workload import QUERY_MIXES
from .config import DEFAULT_THREADS
from .gates import FLAG, FLOOR, RELATIVE, Gate, Harness, alternating_medians, ratio

__all__ = [
    "run_serve_bench",
    "render_serve_report",
    "HARNESS",
    "SERVE_THROUGHPUT_FLOOR",
    "HOT_GRAPH_REUSE_FLOOR",
]

#: Acceptance floor (ISSUE 8): sustained served throughput vs the
#: unbatched/uncached serial baseline on the hot-graph Zipf mix.
SERVE_THROUGHPUT_FLOOR = 5.0
#: Fraction of hot-graph queries that must be answered without a solver
#: run (cache hit or coalesced onto a flight) — the reuse the mix exists
#: to exploit; reported per mix either way.
HOT_GRAPH_REUSE_FLOOR = 0.5

#: Replay graphs, hottest first (rank 0 of the Zipf draw).
_BENCH_GRAPHS = (
    ("hot", 1_500, 6_000, 11),
    ("warm", 2_500, 10_000, 12),
    ("cold", 4_000, 16_000, 13),
)
#: Replay solvers, hottest first.
_BENCH_SOLVERS = ("pkmc", "charikar", "local")


def _percentile(latencies: list[float], q: float) -> float:
    """The ``q``-th percentile of ``latencies`` in seconds."""
    return float(np.percentile(np.asarray(latencies, dtype=np.float64), q))


def _build_graphs() -> dict:
    return {
        name: chung_lu_undirected(n, m, seed=seed)
        for name, n, m, seed in _BENCH_GRAPHS
    }


def _direct_reference(graphs: dict, threads: int) -> dict:
    """One uncached engine run per (dataset, solver): the ground truth."""
    reference = {}
    for dataset, graph in graphs.items():
        for solver in _BENCH_SOLVERS:
            reference[dataset, solver] = engine_run(
                solver, graph, ExecutionContext(num_threads=threads)
            )
    return reference


def _check_bit_identical(response, reference) -> None:
    expected = reference[response.query.dataset, response.query.solver]
    got = response.result
    if not np.array_equal(got.vertices, expected.vertices):
        raise AssertionError(
            f"served vertices differ from direct engine.run for "
            f"{response.query.dataset}/{response.query.solver}"
        )
    if got.density != expected.density or got.iterations != expected.iterations:  # repro-lint: disable=R004 (bit-identity is the contract under test)
        raise AssertionError(
            f"served result drifted from direct engine.run for "
            f"{response.query.dataset}/{response.query.solver}"
        )


def _replay_serial(graphs: dict, queries: list, wave: int, threads: int) -> dict:
    """The unbatched/uncached baseline: one engine run per query."""
    latencies: list[float] = []
    started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
    for offset in range(0, len(queries), wave):
        wave_started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
        for query in queries[offset:offset + wave]:
            engine_run(
                query.solver,
                graphs[query.dataset],
                ExecutionContext(num_threads=threads),
            )
            latencies.append(time.perf_counter() - wave_started)  # repro-lint: disable=R001 (real wall-clock measurement)
    total = time.perf_counter() - started  # repro-lint: disable=R001 (real wall-clock measurement)
    return {
        "total_s": total,
        "qps": ratio(len(queries), total),
        "p50_s": _percentile(latencies, 50),
        "p99_s": _percentile(latencies, 99),
    }


def _replay_served(
    graphs: dict, queries: list, wave: int, threads: int, reference: dict
) -> dict:
    """Replay through a DsdServer in submission waves; verify each response."""
    server = DsdServer(
        graphs=graphs,
        num_workers=2,
        max_queue_depth=wave,
        cache_entries=256,
        num_threads=threads,
    )
    latencies: list[float] = []
    started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
    for offset in range(0, len(queries), wave):
        for response in server.serve(queries[offset:offset + wave]):
            if not response.ok:
                raise AssertionError("mix replay must not shed queries")
            _check_bit_identical(response, reference)
            latencies.append(response.latency_s)
    total = time.perf_counter() - started  # repro-lint: disable=R001 (real wall-clock measurement)
    stats = server.stats
    answered_without_run = stats.cache_hits + stats.coalesced_queries
    return {
        "total_s": total,
        "qps": ratio(len(queries), total),
        "p50_s": _percentile(latencies, 50),
        "p99_s": _percentile(latencies, 99),
        "solver_runs": stats.solver_runs,
        "cache_hits": stats.cache_hits,
        "coalesced": stats.coalesced_queries,
        "batches": stats.batches,
        "reuse_rate": answered_without_run / len(queries) if queries else 0.0,
    }


def _overload_scenario(
    graphs: dict, threads: int, max_solve_s: float, seed: int
) -> dict:
    """Overload an admission-controlled server; measure shedding and p99."""
    max_queue_depth = 24
    waves, wave_size = 3, 80
    server = DsdServer(
        graphs=graphs,
        num_workers=2,
        max_queue_depth=max_queue_depth,
        cache_entries=256,
        num_threads=threads,
        # The throttled tenant's bucket barely refills over the bench's
        # seconds-long lifetime: burst admits 5 queries, then quota
        # rejections dominate its stream deterministically.
        quotas=TenantQuotas(
            rate=1000.0, burst=1000.0, overrides={"throttled": (0.001, 5.0)}
        ),
    )
    queries = build_query_mix(
        "hot-graph",
        datasets=list(graphs),
        solvers=list(_BENCH_SOLVERS),
        num_queries=waves * wave_size,
        seed=seed + 7,
        tenants=("free", "throttled"),
    )
    latencies: list[float] = []
    for offset in range(0, len(queries), wave_size):
        for response in server.serve(queries[offset:offset + wave_size]):
            if response.ok:
                latencies.append(response.latency_s)
    stats = server.stats
    p99 = _percentile(latencies, 99)
    p99_bound = max_queue_depth * max_solve_s
    return {
        "submitted": stats.submitted,
        "accepted": stats.accepted,
        "rejected_queue_full": stats.rejected_queue_full,
        "rejected_quota": stats.rejected_quota,
        "peak_queue_depth": stats.peak_queue_depth,
        "max_queue_depth": max_queue_depth,
        "p99_s": p99,
        "max_solve_s": max_solve_s,
        "p99_bound_s": p99_bound,
        "p99_bounded": bool(p99 <= p99_bound),
    }


def run_serve_bench(
    num_queries: int = 120,
    wave: int = 40,
    threads: int = DEFAULT_THREADS,
    seed: int = 0,
) -> dict:
    """Run the serving benches; return the ``BENCH_serve.json`` payload."""
    graphs = _build_graphs()
    reference = _direct_reference(graphs, threads)

    # Largest single-query cost observed directly: anchors the overload
    # scenario's structural latency bound in this host's own speed.
    def _solve(dataset: str, solver: str):
        return lambda: engine_run(
            solver, graphs[dataset], ExecutionContext(num_threads=threads)
        )

    max_solve_s = max(alternating_medians([_solve(*key) for key in reference], 3))

    mixes = {}
    for mix in QUERY_MIXES:
        queries = build_query_mix(
            mix,
            datasets=list(graphs),
            solvers=list(_BENCH_SOLVERS),
            num_queries=num_queries,
            seed=seed,
        )
        serial = _replay_serial(graphs, queries, wave, threads)
        served = _replay_served(graphs, queries, wave, threads, reference)
        mixes[mix] = {
            "num_queries": num_queries,
            "serial": serial,
            "served": served,
            "throughput_speedup": ratio(served["qps"], serial["qps"]),
            "p99_speedup": ratio(serial["p99_s"], served["p99_s"]),
        }

    return {
        "schema": 1,
        "workload": {
            "graphs": {
                name: {"num_vertices": n, "num_edges_requested": m, "seed": s}
                for name, n, m, s in _BENCH_GRAPHS
            },
            "solvers": list(_BENCH_SOLVERS),
            "num_queries": num_queries,
            "wave": wave,
            "threads": threads,
            "seed": seed,
        },
        "mixes": mixes,
        "overload": _overload_scenario(graphs, threads, max_solve_s, seed),
    }


def render_serve_report(payload: dict) -> str:
    """Readable summary of a serve-bench payload."""
    workload = payload["workload"]
    lines = [
        "serve bench "
        f"({len(workload['graphs'])} graphs x {len(workload['solvers'])} "
        f"solvers, {workload['num_queries']} queries/mix, "
        f"waves of {workload['wave']})"
    ]
    for mix, cell in payload["mixes"].items():
        serial, served = cell["serial"], cell["served"]
        lines.append(
            f"  {mix:<10}: serial {serial['qps']:7.1f} q/s | served "
            f"{served['qps']:8.1f} q/s | {cell['throughput_speedup']:6.2f}x | "
            f"p99 {serial['p99_s'] * 1e3:7.1f} -> {served['p99_s'] * 1e3:6.1f} ms | "
            f"reuse {served['reuse_rate']:.0%}"
        )
    overload = payload["overload"]
    lines.append(
        f"  overload  : {overload['accepted']}/{overload['submitted']} admitted "
        f"(queue_full {overload['rejected_queue_full']}, quota "
        f"{overload['rejected_quota']}) | peak depth "
        f"{overload['peak_queue_depth']}/{overload['max_queue_depth']} | "
        f"p99 {overload['p99_s'] * 1e3:.1f} ms "
        f"(bound {overload['p99_bound_s'] * 1e3:.1f} ms)"
    )
    return "\n".join(lines)


HARNESS = Harness(
    "serve", run_serve_bench, render_serve_report, tolerance=0.30, gates=(
        Gate(FLOOR, "mixes.hot-graph.throughput_speedup",
             "hot-graph throughput speedup is below the acceptance floor",
             floor=SERVE_THROUGHPUT_FLOOR),
        Gate(FLOOR, "mixes.hot-graph.served.reuse_rate",
             "hot-graph reuse rate (cache hits + coalesced) is below its floor",
             floor=HOT_GRAPH_REUSE_FLOOR),
        Gate(RELATIVE, "mixes.*.throughput_speedup", "{key} throughput speedup regressed"),
        *(
            Gate(FLOOR, f"overload.{counter}",
                 f"overload scenario must shed structurally ({counter})", floor=1)
            for counter in ("rejected_queue_full", "rejected_quota")
        ),
        Gate(FLOOR, "overload.max_queue_depth", "queue grew past its bound",
             floor="peak_queue_depth"),
        Gate(FLAG, "overload.p99_bounded",
             "overload p99 latency exceeded the structural bound "
             "(max_queue_depth x max single solve)"),
    ),
)
