"""Distributed PKMC on the simulated BSP cluster (future work, realised).

PKMC is naturally vertex-centric — the h-index update reads only
neighbour values — so the Pregel port is direct:

* **superstep 0**: every vertex initialises h(v) = d(v) and messages its
  value to its neighbours;
* **superstep t**: every vertex that received messages recomputes its
  h-index from the latest neighbour values; vertices whose value
  *changed* message the new value to their neighbours (the standard
  Pregel "halt until woken" optimisation — unchanged vertices stay
  silent and cost nothing);
* a global aggregator tracks (h_max, count-at-h_max) each superstep and
  fires the paper's Theorem-1 early stop exactly as in shared memory.

Messages to same-worker neighbours are free; only cross-partition
messages pay network cost, so the partition's cross-edge fraction drives
the communication bill — the quantity a real GraphX port would tune.

The input picks the partition.  An in-memory graph is hash partitioned
(vertex v on worker v mod W) and swept with the monolithic frontier
kernels.  A :class:`~repro.store.shard.ShardedGraph` puts each shard on
its own worker: supersteps stream the shards through the facade's memory
budget in index order, skipping shards with no woken vertex, and remote
neighbours are counted from the shards' boundary tables.  Because an
update reads only neighbour values, the partition decides which worker
pays for a superstep, never what it computes: core, density and
superstep trace are identical for both.
"""

from __future__ import annotations

import numpy as np

from ..core.results import UDSResult
from ..engine.spec import register_solver
from ..errors import EmptyGraphError
from ..graph.undirected import UndirectedGraph
from ..kernels.density import induced_density
from ..kernels.frontier import _scalar_h_index, frontier_synchronous_sweep
from ..kernels.shard import (
    shard_adjacency_slots,
    shard_induced_edge_count,
    shard_sweep_values,
)
from ..runtime.simruntime import SimRuntime
from ..store.shard import ShardedGraph
from .cluster import BSPAccountant, ClusterConfig

__all__ = ["distributed_pkmc"]

_H_UPDATE_UNITS = 4.0


def _shard_cross_counts(graph: ShardedGraph) -> np.ndarray:
    """Per-vertex count of neighbours living on a different shard.

    Shard ``s``'s boundary table lists exactly the adjacency slots whose
    tail is off-shard, keyed by the owning (source) vertex.
    """
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for index in range(graph.num_shards):
        shard = graph.shard(index)
        if shard.boundary_src.size:
            counts += np.bincount(shard.boundary_src, minlength=graph.num_vertices)
    return counts


def _sweep_shards(
    graph: ShardedGraph,
    h: np.ndarray,
    frontier: np.ndarray | None,
    degrees: np.ndarray,
    cross_counts: np.ndarray,
    sanitizer: SimRuntime | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One superstep shard by shard; ``(new_h, woken, compute, sent)``.

    Each shard adds its work units and cross-shard messages to its own
    worker's slot of ``compute`` / ``sent``.
    """
    bounds = graph.bounds
    new_h = h.copy()
    woken = np.zeros(graph.num_vertices, dtype=bool)
    compute = np.zeros(graph.num_shards, dtype=np.float64)
    sent = np.zeros(graph.num_shards, dtype=np.float64)
    for index in range(graph.num_shards):
        lo, hi = int(bounds[index]), int(bounds[index + 1])
        if frontier is None:
            members = np.arange(lo, hi)
        else:
            i0, i1 = np.searchsorted(frontier, (lo, hi))
            if i0 == i1:
                continue  # nothing woken here: the shard stays cold
            members = frontier[i0:i1]
        shard = graph.shard(index)
        indptr, indices = shard.indptr, shard.indices
        if sanitizer is not None:

            def body(i, old, new, ids=members, ptr=indptr, idx=indices, lo=lo):
                v = int(ids[i])
                r = v - lo
                new[v] = _scalar_h_index(old[idx[ptr[r]:ptr[r + 1]]])

            sanitizer.observe_parfor(
                members.size, body, {"old": h, "new": new_h},
                label="sharded_sweep",
            )
        else:
            rows = None if frontier is None else members
            new_h[members] = shard_sweep_values(
                indptr, indices, h, vertices=rows, vertex_offset=lo
            ).astype(h.dtype, copy=False)
        changed = members[new_h[members] < h[members]]
        compute[index] += float(degrees[members].sum()) + _H_UPDATE_UNITS * members.size
        if changed.size:
            woken[indices[shard_adjacency_slots(indptr, changed, lo)]] = True
            sent[index] += float(cross_counts[changed].sum())
    return new_h, np.flatnonzero(woken), compute, sent


def _shard_density(graph: ShardedGraph, vertices: np.ndarray) -> float:
    """Induced density of a vertex set, summed shard by shard.

    Matches :func:`repro.kernels.density.induced_density` exactly: each
    undirected edge appears once per endpoint across the shards and the
    ``head < tail`` convention in the shard kernel counts it once.
    """
    member = np.zeros(graph.num_vertices, dtype=bool)
    member[vertices] = True
    count = 0
    for index in range(graph.num_shards):
        shard = graph.shard(index)
        count += shard_induced_edge_count(
            shard.indptr, shard.indices, member, vertex_offset=shard.lo
        )
    return count / vertices.size


@register_solver(
    "pkmc-bsp", kind="uds", guarantee="2-approx", cost="bsp",
    supports_cluster=True, supports_sanitize=True, supports_shards=True,
)
def distributed_pkmc(
    graph: UndirectedGraph | ShardedGraph,
    config: ClusterConfig | None = None,
    early_stop: bool = True,
    max_supersteps: int | None = None,
    sanitize: bool = False,
) -> UDSResult:
    """Run PKMC as a vertex-centric BSP program; return the k*-core.

    The returned :class:`UDSResult` carries the simulated cluster time in
    ``simulated_seconds`` and, in ``extras``: the superstep count, total
    messages, the partition's cross-edge fraction and the clock's
    compute / exchange / overhead split.  A
    :class:`~repro.store.shard.ShardedGraph` input runs with one worker
    per shard (``config.num_workers`` is ignored) and adds the facade's
    residency counters as ``extras["shard_stats"]``.

    ``sanitize=True`` routes every superstep's h-recomputation through
    the parfor race sanitizer.  The BSP port charges all costs to the
    simulated *cluster*, not to a SimRuntime, so it drives a local
    sanitizing runtime of its own — the cluster clock, supersteps and
    results are unchanged; the sweep kernels are simply executed under
    :meth:`~repro.runtime.simruntime.SimRuntime.observe_parfor`.  This
    is the kwarg the engine forwards for ``repro-dsd --sanitize``
    (declared ``supports_sanitize`` matches what the contract verifier
    infers from the sweep's dataflow).
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("UDS is undefined on a graph without edges")
    config = config or ClusterConfig()
    sanitizer = SimRuntime(sanitize=True) if sanitize else None
    n = graph.num_vertices
    sharded = isinstance(graph, ShardedGraph)
    if sharded:
        graph.reset_stats()
        num_workers = graph.num_shards
        owner = graph.owners(np.arange(n))
        cross_counts = _shard_cross_counts(graph)
    else:
        num_workers = config.num_workers
        owner = np.arange(n) % num_workers
        heads = graph.heads()
        crossing = owner[heads] != owner[graph.indices]
        cross_counts = np.bincount(heads[crossing], minlength=n)
    accountant = BSPAccountant(config, num_workers)
    degrees = graph.degrees().astype(np.float64)
    limit = max_supersteps if max_supersteps is not None else n + 2

    h = graph.degrees().astype(np.int64)
    h_max = int(h.max())
    count_at_max = int(np.count_nonzero(h == h_max))
    # Superstep 0: initialise h = degree, send to all remote neighbours.
    accountant.superstep(
        2.0 * np.bincount(owner, minlength=num_workers),
        np.bincount(owner, weights=cross_counts, minlength=num_workers),
    )

    supersteps = 1
    # Frontier of vertices that received a message last superstep; None
    # means everyone (superstep 0 messaged all neighbours).
    frontier: np.ndarray | None = None
    early_stop_fired = False
    history = [(h_max, count_at_max)]
    while supersteps < limit:
        # Work: only vertices that received a message recompute — exactly
        # the frontier the sweep kernels track (neighbours of vertices
        # that changed last superstep).
        if sharded:
            new_h, woken, compute, sent = _sweep_shards(
                graph, h, frontier, degrees, cross_counts, sanitizer
            )
        else:
            new_h, woken = frontier_synchronous_sweep(
                graph, h, frontier=frontier, runtime=sanitizer
            )
            active = np.arange(n) if frontier is None else frontier
            changed = active[new_h[active] < h[active]]
            # The in-memory block spreads over the hash partition's owners.
            compute = np.bincount(
                owner[active], weights=degrees[active] + _H_UPDATE_UNITS,
                minlength=num_workers,
            )
            sent = np.bincount(
                owner[changed], weights=cross_counts[changed],
                minlength=num_workers,
            )
        accountant.superstep(compute, sent)
        supersteps += 1

        new_h_max = int(new_h.max())
        new_count = int(np.count_nonzero(new_h == new_h_max))
        history.append((new_h_max, new_count))
        guard_blocks = new_count <= new_h_max
        if (
            early_stop
            and not guard_blocks
            and new_h_max == h_max
            and new_count == count_at_max
        ):
            h = new_h
            early_stop_fired = True
            break
        # Next superstep: only neighbours of changed vertices recompute.
        h, h_max, count_at_max = new_h, new_h_max, new_count
        frontier = woken
        if woken.size == 0:
            break

    core_vertices = np.flatnonzero(h == int(h.max()))
    if sharded:
        density = _shard_density(graph, core_vertices)
    else:
        density = induced_density(graph, core_vertices)
    return UDSResult(
        algorithm="PKMC-BSP",
        vertices=core_vertices,
        density=density,
        iterations=supersteps,
        k_star=int(h.max()),
        simulated_seconds=accountant.now,
        extras={
            **accountant.extras(graph.stats() if sharded else None),
            "cross_edge_fraction": (
                int(cross_counts.sum()) / int(graph.degrees().sum())
            ),
            "early_stop_fired": early_stop_fired,
            "history": history,
        },
    )
