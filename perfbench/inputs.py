"""Benchmark-owned input generation: every workload input comes from here.

Nothing in this module imports the program under test.  Graphs, text
files, query scripts and stream timelines are made with NumPy from the
``--seed`` alone, so a change to the program's own generators
(``repro.graph.generators``, ``repro.datasets``) cannot change what the
benchmark feeds it.

Sizes are fixed per workload; the seed only decides structure.  That
keeps run-to-run cost steady across seeds while still varying which
vertices are hubs, where the planted block sits and which queries
arrive when.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Power-law exponent of the Chung-Lu style endpoint weights.
GAMMA = 2.5


def _powerlaw_ranks(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    """``size`` ranks in ``[0, n)`` drawn with weight ~ ``rank**(-1/(GAMMA-1))``.

    Inverse-transform sampling of the continuous power law on ``[1, n+1)``,
    floored to integer ranks: the Chung-Lu weight sequence without a
    per-draw search over a cumulative table.
    """
    a = 1.0 - 1.0 / (GAMMA - 1.0)
    top = (n + 1.0) ** a - 1.0
    ranks = (rng.random(size) * top + 1.0) ** (1.0 / a) - 1.0
    return np.minimum(ranks.astype(np.int64), n - 1)


def _first_unique(keys: np.ndarray, limit: int) -> np.ndarray:
    """Indices of the first occurrence of each key, in draw order, capped."""
    _, first = np.unique(keys, return_index=True)
    first.sort()
    if first.size < limit:
        raise ValueError(
            f"generator drew only {first.size} distinct edges, needs {limit}"
        )
    return first[:limit]


def undirected_edges(
    rng: np.random.Generator, n: int, m: int, block: int, p_block: float
) -> np.ndarray:
    """``m`` distinct undirected edges ``(u < v)`` over ``n`` vertex ids.

    Background edges join endpoints drawn from power-law weights over a
    random vertex permutation; a planted block of ``block`` vertices
    with edge probability ``p_block`` holds the densest subgraph.  The
    block's edges are drawn first, so the cap at ``m`` never cuts it.
    """
    members = rng.choice(n, block, replace=False)
    iu, ju = np.triu_indices(block, 1)
    keep = rng.random(iu.size) < p_block
    planted = np.stack([members[iu[keep]], members[ju[keep]]], axis=1)
    perm = rng.permutation(n)
    draws = int(m * 1.3) + 64
    u = perm[_powerlaw_ranks(rng, n, draws)]
    v = perm[_powerlaw_ranks(rng, n, draws)]
    pairs = np.concatenate([planted, np.stack([u, v], axis=1)])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    first = _first_unique(lo * n + hi, m)
    return np.stack([lo[first], hi[first]], axis=1)


def directed_edges(rng: np.random.Generator, n: int, m: int, block: int) -> np.ndarray:
    """``m`` distinct arcs ``u -> v`` with a planted complete S->T block.

    Sources and targets draw from independent power-law weights over two
    random permutations; ``S`` and ``T`` are disjoint sets of ``block``
    vertices with every arc ``S -> T`` present.

    The block is complete so that x* = y* = ``block`` on every seed.  A
    random block makes PWC's Theorem-2 gap (w* > x*.y*) appear on some
    seeds only, and its divisor-descent fallback costs 3-4x the collapse
    path, which would make run cost depend on the seed (see README.md,
    first observations).
    """
    chosen = rng.choice(n, 2 * block, replace=False)
    sources, targets = chosen[:block], chosen[block:]
    planted = np.stack([np.repeat(sources, block), np.tile(targets, block)], axis=1)
    out_perm = rng.permutation(n)
    in_perm = rng.permutation(n)
    draws = int(m * 1.3) + 64
    u = out_perm[_powerlaw_ranks(rng, n, draws)]
    v = in_perm[_powerlaw_ranks(rng, n, draws)]
    arcs = np.concatenate([planted, np.stack([u, v], axis=1)])
    arcs = arcs[arcs[:, 0] != arcs[:, 1]]
    first = _first_unique(arcs[:, 0] * n + arcs[:, 1], m)
    return arcs[first]


def edge_text(edges: np.ndarray, rng: np.random.Generator) -> bytes:
    """Render edges as ``"u v\\n"`` lines, in a shuffled order.

    Formatting is vectorised: every id becomes a fixed-width digit row,
    leading zeros are masked out, and one boolean gather packs the
    bytes.  Line order is shuffled so the parser's first-seen vertex
    numbering differs from the benchmark's ids, which the oracle then
    has to map back through the returned labels.
    """
    edges = edges[rng.permutation(edges.shape[0])].astype(np.uint32)
    m = edges.shape[0]
    width = max(1, len(str(int(edges.max(initial=0)))))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint32)
    digits = ((edges[:, :, None] // powers) % 10).astype(np.uint8)
    lengths = np.ones(edges.shape, dtype=np.uint8)
    for k in range(1, width):
        lengths += edges >= 10 ** k
    columns = np.arange(width)
    keep_digit = columns >= width - lengths[:, :, None]
    row = np.empty((m, 2 * width + 2), dtype=np.uint8)
    keep = np.ones((m, 2 * width + 2), dtype=bool)
    row[:, :width] = digits[:, 0] + 48
    row[:, width] = ord(" ")
    row[:, width + 1:2 * width + 1] = digits[:, 1] + 48
    row[:, 2 * width + 1] = ord("\n")
    keep[:, :width] = keep_digit[:, 0]
    keep[:, width + 1:2 * width + 1] = keep_digit[:, 1]
    return row[keep].tobytes()


# ----------------------------------------------------------------------
# serve: graph set and per-client query scripts
# ----------------------------------------------------------------------

UDS_SOLVERS = ("pkmc", "pkmc-bsp", "charikar", "local", "pbu")
DDS_SOLVERS = ("pwc", "pwc-bsp")
#: Fixed seed of the query order's shape; a run's seed rotates it.
ORDER_SEED = 0x0DE5
#: Blocks of equal query mix in the order.
ORDER_BLOCKS = 4
#: Zipf exponent of graph popularity.
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class ServeGraph:
    """One resident graph of the serve workload (ids are benchmark ids)."""

    name: str
    directed: bool
    num_vertices: int
    edges: np.ndarray


def serve_edge_counts(num_graphs: int, smallest: int, largest: int) -> list:
    """Edge counts log-spaced from ``smallest`` to ``largest``.

    The order is a fixed interleave (small, large, small, ...) so the
    most popular ranks mix sizes on every seed: the popularity of big
    graphs, which sets the miss latency, does not swing with the seed.
    """
    sizes = np.geomspace(smallest, largest, num_graphs).round().astype(int)
    order = []
    lo, hi = 0, num_graphs - 1
    while lo <= hi:
        order.append(sizes[lo])
        if lo != hi:
            order.append(sizes[hi])
        lo, hi = lo + 1, hi - 1
    return [int(s) for s in order]


def serve_graphs(
    rng: np.random.Generator, num_graphs: int, smallest: int, largest: int
) -> list:
    """The serve graph set: every third graph directed, the rest undirected."""
    graphs = []
    for rank, m in enumerate(serve_edge_counts(num_graphs, smallest, largest)):
        directed = rank % 3 == 2
        n = max(64, m // 5)
        if directed:
            edges = directed_edges(rng, n, m, int(min(60, max(16, m // 1000))))
        else:
            edges = undirected_edges(rng, n, m, int(min(80, max(24, m // 800))), 0.5)
        kind = "d" if directed else "u"
        graphs.append(ServeGraph(f"{kind}{rank:02d}", directed, n, edges))
    return graphs


def zipf_weights(count: int) -> np.ndarray:
    """Normalised Zipf popularity over ranks ``0..count-1``."""
    weights = 1.0 / np.arange(1, count + 1, dtype=np.float64) ** ZIPF_EXPONENT
    return weights / weights.sum()


def query_scripts(
    rng: np.random.Generator,
    graphs: list,
    clients: int,
    per_client: int,
) -> list:
    """Per-client lists of ``(graph name, solver)`` in the order sent.

    The multiset of queries is stratified, not sampled: each graph gets
    its Zipf share (by rank in ``graphs``) of all queries, split evenly
    over the graph kind's solvers, rounded by largest remainder.  The
    copies of each key are dealt in turn to ``ORDER_BLOCKS`` consecutive
    blocks, so every block asks the same mix, and each block is
    shuffled with the fixed ``ORDER_SEED``.  Queries go to clients in
    turn, so each closed-loop round (one drain) asks ``clients``
    consecutive queries; the run's seed rotates the order by a random
    number of whole rounds (and draws the graphs), which keeps the
    rounds' composition.

    Why the order's shape is fixed: the cache's hits depend on the
    order, and with a freshly shuffled order per seed the solver-run
    count varied by 4% and the p50 latency by 25% (IQR over median, six
    seeds); a rotated fixed order held them to 0.5% and 6%.
    """
    total = clients * per_client
    popularity = zipf_weights(len(graphs))
    keys, shares = [], []
    for graph, share in zip(graphs, popularity):
        solvers = DDS_SOLVERS if graph.directed else UDS_SOLVERS
        for solver in solvers:
            keys.append((graph.name, solver))
            shares.append(total * share / len(solvers))
    shares = np.asarray(shares)
    counts = np.floor(shares).astype(np.int64)
    short = total - int(counts.sum())
    counts[np.argsort(-(shares - counts), kind="stable")[:short]] += 1
    grouped = np.repeat(np.arange(len(keys)), counts)
    block_of = np.arange(total) % ORDER_BLOCKS
    order_rng = np.random.default_rng(ORDER_SEED)
    order = np.concatenate([
        members[order_rng.permutation(members.size)]
        for members in (grouped[block_of == b] for b in range(ORDER_BLOCKS))
    ])
    order = np.roll(order, clients * int(rng.integers(per_client)))
    return [[keys[q] for q in order[c::clients].tolist()] for c in range(clients)]


# ----------------------------------------------------------------------
# stream: sliding-window timeline
# ----------------------------------------------------------------------

#: Share of the edge universe inside the sliding window.
WINDOW_FRACTION = 0.8


@dataclass(frozen=True)
class Timeline:
    """A cyclic sliding-window edge timeline.

    ``order`` is a seeded permutation of the edge universe.  The window
    holds ``window`` consecutive edges of the cyclic order; batch ``b``
    slides it forward by ``sizes[b]``: the next edges arrive, the same
    number of oldest edges expire.  With ``window < len(order)`` every
    arriving edge is absent and every expiring edge present, so no
    update is a no-op.
    """

    num_vertices: int
    order: np.ndarray
    window: int
    sizes: tuple

    def initial(self) -> np.ndarray:
        """Edges in the window before the first batch."""
        return self.order[: self.window]

    def batch(self, offset: int, size: int) -> tuple:
        """``(arrivals, expiries)`` when the window start is at ``offset``."""
        m = self.order.shape[0]
        arrive = (offset + self.window + np.arange(size)) % m
        expire = (offset + np.arange(size)) % m
        return self.order[arrive], self.order[expire]

    def window_at(self, offset: int) -> np.ndarray:
        """The window's edges when its start is at ``offset``."""
        m = self.order.shape[0]
        return self.order[(offset + np.arange(self.window)) % m]


def stream_timeline(
    rng: np.random.Generator,
    n: int,
    m: int,
    block: int,
    batches: int,
    batch_size: int,
    burst_every: int,
    burst_size: int,
) -> Timeline:
    """A seeded timeline over a planted power-law graph of ``m`` edges."""
    edges = undirected_edges(rng, n, m, block, 0.5)
    order = edges[rng.permutation(m)]
    sizes = tuple(
        burst_size if (b + 1) % burst_every == 0 else batch_size
        for b in range(batches)
    )
    window = int(WINDOW_FRACTION * m)
    if max(sizes) > m - window:
        raise ValueError("a batch is larger than the edges outside the window")
    return Timeline(n, order, window, sizes)
