"""repro.serve — the long-lived DSD query service.

The layer that turns the library into a system serving heavy traffic:
a :class:`DsdServer` accepts a stream of
:class:`Query(dataset, solver, params, tenant) <Query>` requests,
applies admission control (bounded queue + per-tenant
:class:`~repro.serve.quota.TenantQuotas` token buckets, shedding with
:class:`~repro.errors.ServeRejected` retry-after metadata), coalesces
duplicate queries onto single-flight computations keyed by the memo
fingerprint, batches flights per graph so CSR scratch and backend
range layouts are set up once per batch, and serves repeats
from a TTL-aware :class:`~repro.store.memo.ResultCache`.  Every
response is bit-identical to a direct :func:`repro.engine.run` of the
same query, and carries the engine's
:class:`~repro.engine.report.RunReport` with its ``serve`` sub-record
(queue wait, batch size, coalesced count) set.

Typical use::

    from repro.serve import DsdServer, Query
    server = DsdServer(cache_ttl=30.0)
    server.submit(Query("PT", "pkmc"))
    server.submit(Query("PT", "pkmc", tenant="other"))  # coalesces
    first, second = server.drain()
    assert second.result.report.serve.coalesced == 2

``repro-bench serve`` replays Zipf-skewed mixes
(:mod:`repro.serve.workload`) against an unbatched/uncached serial
baseline and gates the measured throughput (``BENCH_serve.json``);
``docs/serving.md`` has the architecture and methodology.
"""

from .query import Query, Response
from .quota import TenantQuotas, TokenBucket
from .server import DsdServer, ServerStats
from .workload import QUERY_MIXES, build_query_mix

__all__ = [
    "Query",
    "Response",
    "TokenBucket",
    "TenantQuotas",
    "DsdServer",
    "ServerStats",
    "QUERY_MIXES",
    "build_query_mix",
]
