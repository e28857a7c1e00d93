"""``repro-serve`` command line: replay a query mix through a DsdServer.

The smallest useful front door to :mod:`repro.serve`: build a server
over the synthetic replica datasets, generate a seeded Zipf query mix
(:func:`repro.serve.workload.build_query_mix`), replay it in submission
waves, and print per-response serving metadata plus the server's
counter summary.  Examples::

    repro-serve --mix hot-graph --num-queries 40
    repro-serve --datasets PT,EW --solvers pkmc,charikar --ttl 30
    repro-serve --mix uniform --max-queue-depth 8 --quota-rate 2 --quota-burst 4
"""

from __future__ import annotations

import argparse

from .quota import TenantQuotas
from .server import DsdServer
from .workload import QUERY_MIXES, build_query_mix

__all__ = ["main"]

#: Default replay datasets: small synthetic replicas that load fast.
_DEFAULT_DATASETS = "PT,EW"
#: Default replay solvers: the fast exact/approximate UDS pair.
_DEFAULT_SOLVERS = "pkmc,charikar"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Replay a seeded Zipf-skewed query mix through the batched, "
            "cache-backed DSD query service and report serving metadata."
        ),
    )
    parser.add_argument(
        "--mix", choices=QUERY_MIXES, default="hot-graph",
        help="traffic shape of the replay (default: hot-graph)",
    )
    parser.add_argument(
        "--datasets", default=_DEFAULT_DATASETS,
        help=f"comma-separated dataset names, hottest first "
             f"(default: {_DEFAULT_DATASETS})",
    )
    parser.add_argument(
        "--solvers", default=_DEFAULT_SOLVERS,
        help=f"comma-separated solver names, hottest first "
             f"(default: {_DEFAULT_SOLVERS})",
    )
    parser.add_argument(
        "--num-queries", type=int, default=40,
        help="queries in the replay stream (default: 40)",
    )
    parser.add_argument(
        "--wave", type=int, default=20,
        help="queries submitted per drain cycle (default: 20)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="mix RNG seed (default: 0)"
    )
    parser.add_argument(
        "--tenants", default="default",
        help="comma-separated tenant names assigned round-robin",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=64,
        help="admission queue bound; beyond it queries are shed (default: 64)",
    )
    parser.add_argument(
        "--ttl", type=float, default=None,
        help="result-cache TTL in seconds (default: no expiry)",
    )
    parser.add_argument(
        "--cache-entries", type=int, default=256,
        help="result-cache capacity; 0 disables caching (default: 256)",
    )
    parser.add_argument(
        "--quota-rate", type=float, default=None,
        help="per-tenant token refill rate in queries/sec (default: no quotas)",
    )
    parser.add_argument(
        "--quota-burst", type=float, default=8.0,
        help="per-tenant token bucket capacity (default: 8)",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="simulated threads per solver run (default: 1)",
    )
    parser.add_argument(
        "--backend", default=None,
        help="array backend for solver runs (default: environment default)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.num_queries < 1 or args.wave < 1:
        print("--num-queries and --wave must be >= 1")
        return 2
    quotas = None
    if args.quota_rate is not None:
        quotas = TenantQuotas(rate=args.quota_rate, burst=args.quota_burst)
    server = DsdServer(
        max_queue_depth=args.max_queue_depth,
        cache_entries=args.cache_entries,
        cache_ttl=args.ttl,
        quotas=quotas,
        num_threads=args.threads,
        backend=args.backend,
    )
    queries = build_query_mix(
        args.mix,
        datasets=[name.strip() for name in args.datasets.split(",") if name.strip()],
        solvers=[name.strip() for name in args.solvers.split(",") if name.strip()],
        num_queries=args.num_queries,
        seed=args.seed,
        tenants=[name.strip() for name in args.tenants.split(",") if name.strip()],
    )
    print(
        f"replaying {len(queries)} '{args.mix}' queries in waves of "
        f"{args.wave} (backend={server.backend})"
    )
    for offset in range(0, len(queries), args.wave):
        for response in server.serve(queries[offset:offset + args.wave]):
            query = response.query
            head = f"  {query.dataset:>6}/{query.solver:<10} {query.tenant:<10}"
            if response.ok:
                report = response.result.report
                print(
                    f"{head} ok      density={response.result.density:.6g} "
                    f"wait={report.serve.queue_wait_s * 1e3:6.2f}ms "
                    f"batch={report.serve.batch_size:<3d} "
                    f"coalesced={report.serve.coalesced:<3d} "
                    f"cache_hit={report.cache_hit}"
                )
            else:
                print(
                    f"{head} SHED    reason={response.reason} "
                    f"retry_after={response.retry_after_s:.3g}s"
                )
    stats = server.stats.as_dict()
    cache = server.cache_stats()
    print(
        f"served {stats['completed']}/{stats['submitted']} "
        f"(rejected: queue_full={stats['rejected_queue_full']} "
        f"quota={stats['rejected_quota']}) | solver_runs={stats['solver_runs']} "
        f"cache_hits={stats['cache_hits']} coalesced={stats['coalesced_queries']} "
        f"batches={stats['batches']} peak_depth={stats['peak_queue_depth']}"
    )
    print(
        f"cache: hits={cache['hits']} misses={cache['misses']} "
        f"expired={cache['expired']} entries={cache['entries']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
