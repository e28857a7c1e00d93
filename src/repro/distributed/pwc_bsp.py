"""Distributed PWC on the simulated BSP cluster (future work, realised).

Algorithm 3's edge peeling is also message-driven: an edge's weight
d⁺(u)·d⁻(v) changes only when one endpoint loses an edge, so a Pregel
port keeps each vertex's out/in-degree as vertex state and propagates
*degree-change* messages:

* **superstep 0**: every vertex learns its degrees; edges with weight
  below the d_max prune threshold are scheduled for deletion;
* **superstep t**: each vertex applies the deletions it owns, decrements
  its degrees, and messages its new degree to the affected remote
  neighbours; edges whose refreshed weight drops to the current level w
  join the next deletion wave; when a level drains, a global aggregator
  finds the next minimum weight (one extra round per level).

An edge (u, v) is owned by u's worker; deleting it sends one degree
message to v's worker when the two differ.  As with the shared-memory
version, the final non-empty level is the w*-induced subgraph; cn-pair
extraction then runs on that small remnant (cheap enough to centralise
on one worker, as a GraphX driver would).

The input picks the partition: an in-memory graph is hash partitioned
(u's worker is u mod W) and scanned as one block; a
:class:`~repro.store.shard.ShardedGraph` puts each shard on its own
worker and scans shard by shard through the facade's memory budget.
Every wave reads frozen degrees and applies its deletions at the
barrier, so w*, the levels and the [x*, y*]-core are the same for both.
Out of core, cn-pair extraction runs driver-side on the remnant
collected off the shards, so the full CSR is never built there except
on the Theorem-2-gap fallback (never taken on the replicas).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from ..core.pwc import derive_cn_pair_collapse, derive_cn_pair_divisor
from ..core.results import DDSResult
from ..core.winduced import WStarResult
from ..core.xycore import xy_core
from ..engine.spec import register_solver
from ..errors import EmptyGraphError
from ..graph.directed import DirectedGraph
from ..store.shard import GraphShard, ShardedGraph
from .cluster import BSPAccountant, ClusterConfig

__all__ = ["distributed_pwc"]

_EDGE_SCAN_UNITS = 3.0


def _shard_heads(shard: GraphShard) -> np.ndarray:
    """Global source id of every adjacency slot in a directed shard."""
    return np.repeat(
        np.arange(shard.lo, shard.hi, dtype=np.int64),
        np.diff(np.asarray(shard.out_indptr, dtype=np.int64)),
    )


def _live_edge_blocks(graph: DirectedGraph | ShardedGraph, alive: np.ndarray):
    """Yield ``(shard, edge_ids, src, dst)`` of the alive edges.

    An in-memory graph is one block with ``shard=None``.  A ShardedGraph
    yields one block per shard in index order; every shard is loaded,
    and shards without alive edges yield nothing.
    """
    if not isinstance(graph, ShardedGraph):
        eids = np.flatnonzero(alive)
        if eids.size:
            yield None, eids, graph.edge_src[eids], graph.edge_dst[eids]
        return
    for index in range(graph.num_shards):
        shard = graph.shard(index)
        live = alive[shard.out_edge_ids]
        if live.any():
            src = _shard_heads(shard)[live]
            yield shard, shard.out_edge_ids[live], src, shard.out_indices[live]


def _collect_remnant(graph: ShardedGraph, edge_mask: np.ndarray) -> SimpleNamespace:
    """The masked edges off the shards, as a driver-side edge list.

    :func:`~repro.core.pwc.derive_cn_pair_collapse` and
    :func:`~repro.core.xycore.xy_core` read only ``edge_src`` /
    ``edge_dst`` / ``num_vertices`` / ``num_edges`` plus an edge mask, so
    the (small, Table-7-sized) w*-remnant stands in for the full graph
    without materializing its CSR.  Vertex ids stay global and edges keep
    their global id order, hence S/T match the in-memory answer.
    """
    _, eids, src, dst = zip(*_live_edge_blocks(graph, edge_mask))
    order = np.argsort(np.concatenate(eids), kind="stable")
    return SimpleNamespace(
        num_vertices=graph.num_vertices,
        num_edges=order.size,
        edge_src=np.concatenate(src)[order],
        edge_dst=np.concatenate(dst)[order],
    )


@register_solver(
    "pwc-bsp", kind="dds", guarantee="2-approx", cost="bsp",
    supports_cluster=True, supports_shards=True,
)
def distributed_pwc(
    graph: DirectedGraph | ShardedGraph,
    config: ClusterConfig | None = None,
    start_at_dmax: bool = True,
) -> DDSResult:
    """Run PWC's w*-peeling as a BSP program; return the [x*, y*]-core.

    The answer is identical to shared-memory :func:`repro.core.pwc`;
    ``simulated_seconds`` is the cluster time and ``extras`` carries the
    superstep/message counters plus the usual Table-7 sizes.

    A :class:`~repro.store.shard.ShardedGraph` input runs out of core
    with one worker per shard (``config.num_workers`` is ignored) and
    adds the facade's residency counters as ``extras["shard_stats"]``.
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    config = config or ClusterConfig()
    sharded = isinstance(graph, ShardedGraph)
    if sharded:
        graph.reset_stats()
        num_workers = graph.num_shards
        cross_fraction = graph.cross_adjacency_fraction()
    else:
        num_workers = config.num_workers
        edge_owner = graph.edge_src % num_workers
        edge_cross = edge_owner != graph.edge_dst % num_workers
        cross_fraction = np.count_nonzero(edge_cross) / graph.num_edges
    accountant = BSPAccountant(config, num_workers)
    alive = np.ones(graph.num_edges, dtype=bool)
    dout = graph.out_degrees().copy()
    din = graph.in_degrees().copy()

    def cascade(threshold: int, strict: bool) -> None:
        """Peel below/at ``threshold`` to a fixed point, one wave per step."""
        while True:
            scanned = np.zeros(num_workers, dtype=np.float64)
            sent = np.zeros(num_workers, dtype=np.float64)
            dead = []
            for shard, eids, src, dst in _live_edge_blocks(graph, alive):
                weights = dout[src] * din[dst]
                bad = np.flatnonzero(
                    weights < threshold if strict else weights <= threshold
                )
                gone, gone_dst = eids[bad], dst[bad]
                dead.append((gone, src[bad], gone_dst))
                # A shard charges its own worker; the in-memory block
                # spreads over the hash partition's owners.
                if shard is None:
                    scanned += np.bincount(edge_owner[eids], minlength=num_workers)
                    sent += np.bincount(
                        edge_owner[gone[edge_cross[gone]]], minlength=num_workers
                    )
                else:
                    scanned[shard.index] += eids.size
                    off_shard = (gone_dst < shard.lo) | (gone_dst >= shard.hi)
                    sent[shard.index] += np.count_nonzero(off_shard)
            if not dead:  # no alive edge left: no superstep runs
                return
            accountant.superstep(scanned * _EDGE_SCAN_UNITS, sent)
            if not any(gone.size for gone, _, _ in dead):
                return
            # The barrier: every block was scanned at the same frozen
            # degrees, so deletions apply only now.
            for gone, gone_src, gone_dst in dead:
                alive[gone] = False
                np.subtract.at(dout, gone_src, 1)
                np.subtract.at(din, gone_dst, 1)

    def min_alive_weight() -> int | None:
        """Driver-side aggregation of the next level's minimum weight."""
        lows = [
            int((dout[src] * din[dst]).min())
            for _, _, src, dst in _live_edge_blocks(graph, alive)
        ]
        return min(lows) if lows else None

    if start_at_dmax:
        cascade(max(int(dout.max()), int(din.max())), strict=True)
    size_after_prune = int(np.count_nonzero(alive))

    snapshot = alive.copy()
    w_star = 0
    levels = 0
    while (w_cur := min_alive_weight()) is not None:
        snapshot = alive.copy()
        w_star = w_cur
        levels += 1
        cascade(w_cur, strict=False)

    wstar = WStarResult(
        edge_mask=snapshot,
        w_star=w_star,
        rounds=accountant.supersteps,
        size_after_prune=size_after_prune,
        size_wstar=int(np.count_nonzero(snapshot)),
    )
    # cn-pair extraction on the (small) remnant, centralised on one worker
    # as a driver-side step; the cost is negligible next to the peeling.
    remnant, remnant_wstar = graph, wstar
    if sharded:
        remnant = _collect_remnant(graph, snapshot)
        remnant_wstar = replace(
            wstar, edge_mask=np.ones(remnant.num_edges, dtype=bool)
        )
    pair = derive_cn_pair_collapse(remnant, remnant_wstar)
    core = None
    if pair is not None:
        x, y = pair
        core = xy_core(remnant, x, y, edge_mask=remnant_wstar.edge_mask)
        if not core.exists:
            core = None
    if core is None:
        # Theorem-2-gap descent: rebuilding P-induced subgraphs needs the
        # full CSR, so a sharded run materializes it once here.
        full = graph.to_graph() if sharded else graph
        x, y, core = derive_cn_pair_divisor(full, wstar)
    return DDSResult(
        algorithm="PWC-BSP",
        s=core.s,
        t=core.t,
        density=core.density(),
        x=x,
        y=y,
        w_star=w_star,
        iterations=levels,
        simulated_seconds=accountant.now,
        extras={
            **accountant.extras(graph.stats() if sharded else None),
            "cross_edge_fraction": cross_fraction,
            "size_first": size_after_prune,
            "size_wstar": wstar.size_wstar,
        },
    )
