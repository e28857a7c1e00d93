"""``serve``: a closed loop of clients against one ``DsdServer``.

About two dozen resident graphs (two-thirds undirected, one-third
directed, 5k-60k edges) with Zipf popularity; the solver is uniform per
graph kind.  Tenants take turns, with quotas loose enough to admit
everything; the server's cache holds about a third of the distinct
(graph, solver) keys, so eviction really happens.

Closed loop: ``CLIENTS`` clients each keep one query outstanding.  The
server is a synchronous submit/drain object, so a drain answers every
outstanding query and each client then submits its next one.  In an
open loop, timing decides which queries share a drain, which changes
the coalescing and hit counts from run to run; the closed loop keeps
them exact for a seed.

One chunk replays every client's script once against a fresh server
(fresh cache); chunks are identical, so their counts repeat exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import inputs, oracle
from .common import Chunk, Probe, Tally

SALT = 0x5E7E
CLIENTS = 8
WORKERS = 2
TENANTS = 4


@dataclass(frozen=True)
class Scale:
    """Sizes of the serve workload."""

    num_graphs: int
    smallest: int
    largest: int
    per_client: int
    cache_entries: int


FULL = Scale(24, 5_000, 60_000, 200, 32)
TINY = Scale(6, 300, 1_200, 12, 5)


@dataclass
class State:
    """Resident graphs, client scripts and reference answers."""

    scale: Scale
    graphs: dict
    scripts: list
    references: dict
    edge_counts: dict

    def describe(self) -> dict:
        """Input sizes for the run report."""
        keys = {(g, s) for script in self.scripts for g, s in script}
        return {
            "graphs": len(self.graphs),
            "m_total": int(sum(self.edge_counts.values())),
            "m_min": int(min(self.edge_counts.values())),
            "m_max": int(max(self.edge_counts.values())),
            "clients": CLIENTS,
            "queries_per_chunk": sum(len(s) for s in self.scripts),
            "distinct_keys": len(keys),
            "cache_entries": self.scale.cache_entries,
        }


def setup(seed: int, workdir, scale: Scale = FULL) -> State:
    """Build the resident graphs, the scripts and every reference answer."""
    import repro.engine as engine
    from repro.graph.directed import DirectedGraph
    from repro.graph.undirected import UndirectedGraph

    rng = np.random.default_rng([seed, SALT])
    specs = inputs.serve_graphs(rng, scale.num_graphs, scale.smallest,
                                scale.largest)
    graphs = {}
    for spec in specs:
        cls = DirectedGraph if spec.directed else UndirectedGraph
        graph = cls.from_edges(spec.num_vertices, spec.edges)
        graph.fingerprint()
        graphs[spec.name] = graph
    scripts = inputs.query_scripts(rng, specs, CLIENTS, scale.per_client)
    references = {}
    for script in scripts:
        for name, solver in script:
            if (name, solver) not in references:
                result = engine.run(solver, graphs[name])
                references[(name, solver)] = oracle.answer_key(result)
    return State(scale, graphs, scripts, references,
                 {spec.name: spec.edges.shape[0] for spec in specs})


def run_chunk(state: State, tally: Tally, probe: Probe, first_op: int) -> Chunk:
    """Replay every client's script once against a fresh server."""
    from repro.serve import DsdServer, Query, TenantQuotas

    server = DsdServer(
        state.graphs,
        num_workers=WORKERS,
        max_queue_depth=4 * CLIENTS,
        cache_entries=state.scale.cache_entries,
        quotas=TenantQuotas(rate=1e9, burst=1e9),
    )
    chunk = Chunk()
    waits: list = []
    position = [0] * len(state.scripts)
    issued = 0
    while True:
        ready = [c for c, script in enumerate(state.scripts)
                 if position[c] < len(script)]
        if not ready:
            break
        probe.operation(first_op + issued)
        admitted = []
        started = time.perf_counter()
        for client in ready:
            name, solver = state.scripts[client][position[client]]
            position[client] += 1
            tally.attempt()
            query = Query(name, solver, tenant=f"tenant{issued % TENANTS}")
            issued += 1
            try:
                server.submit(query)
            except Exception:  # noqa: BLE001 - counted, the loop goes on
                tally.raised(f"serve submit {name}/{solver}")
                continue
            admitted.append(query)
        try:
            responses = server.drain()
        except Exception:  # noqa: BLE001 - every query of the drain fails
            for query in admitted:
                tally.raised(f"serve drain {query.dataset}/{query.solver}")
            responses = []
            admitted = []
        chunk.replay_s += time.perf_counter() - started
        with probe.paused():
            for query, response in zip(admitted, responses):
                what = f"serve query {query.dataset}/{query.solver}"
                if not response.ok:
                    tally.fail(f"{what} {response.status} ({response.reason})")
                    continue
                chunk.samples.append(response.latency_s)
                waits.append(response.queue_wait_s)
                chunk.work += 1
                reference = state.references[(query.dataset, query.solver)]
                problems = oracle.same_answer(response.result, reference)
                if problems:
                    tally.fail(what, problems)
    stats = server.stats
    chunk.counts = {
        "serve.solver_runs": stats.solver_runs,
        "serve.cache_hits": stats.cache_hits,
        "serve.coalesced": stats.coalesced_queries,
        "serve.batches": stats.batches,
        "serve.rejected": stats.rejected_queue_full + stats.rejected_quota,
        "serve.completed": stats.completed,
    }
    chunk.extra = {"queue_wait": waits}
    return chunk


def summary(chunks: list, end_to_end: dict) -> dict:
    """The workload's own names for its end-to-end figures."""
    return {
        "serve_qps": (end_to_end["ops_per_s"], "queries/s"),
        "serve_p50_s": (end_to_end["latency_p50_s"], "s"),
        "serve_p99_s": (end_to_end["latency_tail_s"], "s"),
    }
