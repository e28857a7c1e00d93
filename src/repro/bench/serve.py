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
p50/p99 submit-to-completion latency for both sides.  The two replays
of a mix are alternating legs of
:func:`repro.bench.gates.alternating_samples`, :data:`ROUNDS` rounds
with no warm-up replay, each served leg on a fresh server; the
throughput speedup is the median of the per-round time ratios.  Every
served response is checked **bit-identical** to a direct engine run of
the same query (vertices, density, iterations), so the speedups can
never come from answering a different question.

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

import statistics
import time

import numpy as np

from ..engine import ExecutionContext
from ..engine import run as engine_run
from ..graph import chung_lu_undirected
from ..serve import DsdServer, TenantQuotas, build_query_mix
from ..serve.workload import QUERY_MIXES
from .config import DEFAULT_THREADS
from .gates import (
    FLAG, FLOOR, RELATIVE, Gate, Harness, alternating_medians, alternating_samples,
    ratio,
)

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

#: Alternating serial/served replay rounds per mix, chosen by resampling
#: 3 sets of 20 alternating replay pairs per mix on a 2-vCPU host: one
#: pair fell below its gate in 4.9% (hot-graph) and 6.6% (hot-solver) of
#: draws, any mix in 11.2%; the median ratio of 3 pairs in 0.7%, 1.3% and
#: 2.0%.  Five rounds (0.4%) would not fit the ~45 s the gate may take
#: there (a round of the three mixes costs ~11 s).
ROUNDS = 3

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


def _replay_serial(graphs: dict, queries: list, wave: int, threads: int) -> list:
    """The unbatched/uncached baseline: one engine run per query.

    Returns each query's latency from the start of its wave.
    """
    latencies: list[float] = []
    for offset in range(0, len(queries), wave):
        wave_started = time.perf_counter()  # repro-lint: disable=R001 (real wall-clock measurement)
        for query in queries[offset:offset + wave]:
            engine_run(
                query.solver,
                graphs[query.dataset],
                ExecutionContext(num_threads=threads),
            )
            latencies.append(time.perf_counter() - wave_started)  # repro-lint: disable=R001 (real wall-clock measurement)
    return latencies


def _replay_served(
    server: DsdServer, queries: list, wave: int, reference: dict
) -> tuple[list, tuple]:
    """Replay through ``server`` in submission waves; verify each response.

    Returns the response latencies and the server's counters.
    """
    latencies: list[float] = []
    for offset in range(0, len(queries), wave):
        for response in server.serve(queries[offset:offset + wave]):
            if not response.ok:
                raise AssertionError("mix replay must not shed queries")
            _check_bit_identical(response, reference)
            latencies.append(response.latency_s)
    stats = server.stats
    return latencies, (
        stats.solver_runs, stats.cache_hits, stats.coalesced_queries, stats.batches,
    )


def _replay_mix(
    graphs: dict, queries: list, wave: int, threads: int, reference: dict
) -> dict:
    """Alternating serial/served replays of one mix; its payload cell."""

    def _server() -> DsdServer:
        return DsdServer(
            graphs=graphs, max_queue_depth=wave, cache_entries=256,
            num_threads=threads,
        )

    serial_legs, served_legs = alternating_samples(
        [
            lambda: _replay_serial(graphs, queries, wave, threads),
            lambda server: _replay_served(server, queries, wave, reference),
        ],
        ROUNDS,
        setups=[None, _server],
        warmup=False,
    )
    counters = {record[1] for _, record in served_legs}
    if len(counters) != 1:
        raise AssertionError(f"served replays disagree on their counters: {counters}")
    (solver_runs, cache_hits, coalesced, batches), = counters

    def _side(legs, latencies) -> dict:
        total = statistics.median(seconds for seconds, _ in legs)
        return {
            "total_s": total,
            "qps": ratio(len(queries), total),
            "p50_s": _percentile(latencies, 50),
            "p99_s": _percentile(latencies, 99),
        }

    serial = _side(serial_legs, [x for _, record in serial_legs for x in record])
    served = _side(served_legs, [x for _, record in served_legs for x in record[0]])
    served.update(
        solver_runs=solver_runs,
        cache_hits=cache_hits,
        coalesced=coalesced,
        batches=batches,
        reuse_rate=(cache_hits + coalesced) / len(queries) if queries else 0.0,
    )
    return {
        "num_queries": len(queries),
        "serial": serial,
        "served": served,
        "throughput_speedup": statistics.median(
            ratio(serial_s, served_s)
            for (serial_s, _), (served_s, _) in zip(serial_legs, served_legs)
        ),
        "p99_speedup": ratio(serial["p99_s"], served["p99_s"]),
    }


def _overload_scenario(
    graphs: dict, threads: int, max_solve_s: float, seed: int
) -> dict:
    """Overload an admission-controlled server; measure shedding and p99."""
    max_queue_depth = 24
    waves, wave_size = 3, 80
    server = DsdServer(
        graphs=graphs,
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
        mixes[mix] = _replay_mix(graphs, queries, wave, threads, reference)

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
