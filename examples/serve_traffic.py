"""Serving skewed query traffic: coalescing, batching and TTL caching.

A walkthrough of `repro.serve` on the workload shape real deployments
see: many tenants, few hot graphs.  We generate a seeded Zipf-skewed
query mix (the same `repro.datasets.synth.sample_zipf` sampler the
`repro-bench serve` harness replays), push it through a `DsdServer` in
submission waves, and show how much of the stream is answered without
running a solver — then overload a tiny queue to show structured
shedding instead of unbounded growth.

Run with::

    python examples/serve_traffic.py
"""

from repro.graph import chung_lu_undirected
from repro.serve import DsdServer, TenantQuotas, build_query_mix

GRAPHS = {
    "social": chung_lu_undirected(1_200, 5_000, seed=31),
    "web": chung_lu_undirected(1_500, 6_000, seed=32),
}
SOLVERS = ["pkmc", "charikar"]


def replay_hot_graph_mix() -> None:
    """Most queries hit one graph: coalescing + caching absorb them."""
    server = DsdServer(graphs=GRAPHS, cache_ttl=300.0)
    queries = build_query_mix(
        "hot-graph", list(GRAPHS), SOLVERS, num_queries=36, seed=7,
        tenants=("alice", "bob", "carol"),
    )
    for offset in range(0, len(queries), 12):
        for response in server.serve(queries[offset:offset + 12]):
            report = response.result.report
            print(
                f"  {response.query.dataset:>6}/{response.query.solver:<9}"
                f" {response.query.tenant:<6} density={response.result.density:8.4f}"
                f" batch={report.serve.batch_size:2d}"
                f" coalesced={report.serve.coalesced:2d}"
                f" cache_hit={report.cache_hit}"
            )
    stats = server.stats
    reuse = stats.cache_hits + stats.coalesced_queries
    print(
        f"{stats.completed} queries answered by {stats.solver_runs} solver "
        f"runs ({reuse} reused: {stats.cache_hits} cache hits + "
        f"{stats.coalesced_queries} coalesced)"
    )


def overload_tiny_queue() -> None:
    """Admission control sheds with retry-after instead of queueing forever."""
    server = DsdServer(
        graphs=GRAPHS,
        max_queue_depth=6,
        # bob is throttled to a 2-query burst; alice rides the default.
        quotas=TenantQuotas(rate=50.0, burst=20.0, overrides={"bob": (1.0, 2.0)}),
    )
    queries = build_query_mix(
        "uniform", list(GRAPHS), SOLVERS, num_queries=12, seed=9,
        tenants=("alice", "bob"),
    )
    responses = server.serve(queries)
    served = sum(1 for r in responses if r.ok)
    for response in responses:
        if not response.ok:
            print(
                f"  shed {response.query.tenant:<6} reason={response.reason}"
                f" retry_after={response.retry_after_s:.3g}s"
            )
    stats = server.stats
    print(
        f"{served}/{len(queries)} served; queue never grew past "
        f"{stats.peak_queue_depth} (bound {server.max_queue_depth})"
    )


if __name__ == "__main__":
    print("== hot-graph mix: 36 queries, 3 tenants ==")
    replay_hot_graph_mix()
    print()
    print("== overload: 12-query burst into a 6-slot queue ==")
    overload_tiny_queue()
