"""Random-graph generators used for tests and synthetic dataset replicas.

All generators are deterministic given a ``seed`` and return the library's
CSR graph types.  The heavy-tailed generators (Chung–Lu style) are the
workhorse for replicating the paper's KONECT/LAW graphs: real web and social
graphs are power-law with a concentrated dense core, which is exactly the
regime in which PKMC's early-stop criterion fires after a handful of
iterations (paper, Exp-2 discussion).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from ..store.csr import unique_pairs
from .directed import DirectedGraph
from .undirected import UndirectedGraph

__all__ = [
    "gnm_random_undirected",
    "gnm_random_directed",
    "chung_lu_undirected",
    "chung_lu_directed",
    "planted_dense_subgraph",
    "planted_st_subgraph",
    "powerlaw_weights",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def powerlaw_weights(
    n: int, exponent: float = 2.2, w_min: float = 1.0, w_max: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Sample n weights from a bounded Pareto-like distribution.

    Used as expected degrees for Chung–Lu generation.  ``exponent`` is the
    power-law tail exponent (typical social/web graphs: 2.0–2.5).
    """
    if n <= 0:
        return np.empty(0)
    rng = _rng(seed)
    if w_max is None:
        w_max = max(w_min * 2, float(n) ** 0.75)
    u = rng.random(n)
    # Inverse-CDF sampling of a bounded Pareto with alpha = exponent - 1.
    alpha = max(exponent - 1.0, 0.05)
    lo, hi = w_min ** -alpha, w_max ** -alpha
    return (lo - u * (lo - hi)) ** (-1.0 / alpha)


def gnm_random_undirected(
    n: int, m: int, seed: int | np.random.Generator | None = None
) -> UndirectedGraph:
    """Uniform G(n, m)-style graph (m distinct edges, or fewer on collision).

    Edge count can fall slightly below ``m`` because sampled duplicate pairs
    and self-loops are discarded, which is irrelevant for our workloads.
    """
    if n < 0 or m < 0:
        raise GraphError("n and m must be non-negative")
    if n < 2 or m == 0:
        return UndirectedGraph.empty(n)
    rng = _rng(seed)
    # Oversample to compensate for collisions, then dedupe.
    draw = min(int(m * 1.3) + 16, n * (n - 1) // 2 * 4)
    u = rng.integers(0, n, size=draw)
    v = rng.integers(0, n, size=draw)
    keep = u != v
    u, v = u[keep], v[keep]
    uniq = unique_pairs(n, np.minimum(u, v), np.maximum(u, v))
    return UndirectedGraph.from_edges(n, uniq[:m])


def gnm_random_directed(
    n: int, m: int, seed: int | np.random.Generator | None = None
) -> DirectedGraph:
    """Uniform directed G(n, m)-style graph (self-loops removed)."""
    if n < 0 or m < 0:
        raise GraphError("n and m must be non-negative")
    if n < 2 or m == 0:
        return DirectedGraph.empty(n)
    rng = _rng(seed)
    draw = min(int(m * 1.3) + 16, n * (n - 1) * 2)
    u = rng.integers(0, n, size=draw)
    v = rng.integers(0, n, size=draw)
    keep = u != v
    edges = unique_pairs(n, u[keep], v[keep])
    rng.shuffle(edges, axis=0)
    return DirectedGraph.from_edges(n, edges[:m])


def chung_lu_undirected(
    n: int,
    target_edges: int,
    exponent: float = 2.2,
    max_weight: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> UndirectedGraph:
    """Chung–Lu style power-law graph with roughly ``target_edges`` edges.

    Endpoints of each edge are sampled proportionally to power-law weights,
    giving a heavy-tailed degree distribution with hubs, the structure the
    paper's datasets share.
    """
    if n < 2 or target_edges <= 0:
        return UndirectedGraph.empty(max(n, 0))
    rng = _rng(seed)
    weights = powerlaw_weights(n, exponent=exponent, w_max=max_weight, seed=rng)
    prob = weights / weights.sum()
    draw = int(target_edges * 1.35) + 16
    u = rng.choice(n, size=draw, p=prob)
    v = rng.choice(n, size=draw, p=prob)
    keep = u != v
    u, v = u[keep], v[keep]
    uniq = unique_pairs(n, np.minimum(u, v), np.maximum(u, v))
    rng.shuffle(uniq, axis=0)
    return UndirectedGraph.from_edges(n, uniq[:target_edges])


def chung_lu_directed(
    n: int,
    target_edges: int,
    out_exponent: float = 2.2,
    in_exponent: float = 2.0,
    max_weight: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> DirectedGraph:
    """Directed Chung–Lu style graph with separate out/in weight tails.

    A smaller ``in_exponent`` produces heavier in-degree hubs, matching the
    paper's directed graphs where d_max^- far exceeds d_max^+ (Table 5).
    """
    if n < 2 or target_edges <= 0:
        return DirectedGraph.empty(max(n, 0))
    rng = _rng(seed)
    out_w = powerlaw_weights(n, exponent=out_exponent, w_max=max_weight, seed=rng)
    in_w = powerlaw_weights(n, exponent=in_exponent, w_max=max_weight, seed=rng)
    draw = int(target_edges * 1.35) + 16
    u = rng.choice(n, size=draw, p=out_w / out_w.sum())
    v = rng.choice(n, size=draw, p=in_w / in_w.sum())
    keep = u != v
    edges = unique_pairs(n, u[keep], v[keep])
    rng.shuffle(edges, axis=0)
    return DirectedGraph.from_edges(n, edges[:target_edges])


def planted_dense_subgraph(
    n: int,
    background_edges: int,
    core_size: int,
    core_probability: float = 0.9,
    exponent: float = 2.3,
    max_weight: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[UndirectedGraph, np.ndarray]:
    """Power-law background plus a planted near-clique core.

    Returns ``(graph, core_vertices)``.  The planted core is what both the
    k*-core and the densest subgraph should (approximately) recover, which
    tests and examples exploit.
    """
    if core_size > n:
        raise GraphError("core_size cannot exceed n")
    rng = _rng(seed)
    background = chung_lu_undirected(
        n, background_edges, exponent=exponent, max_weight=max_weight, seed=rng
    )
    core = rng.choice(n, size=core_size, replace=False)
    pairs = []
    for i in range(core_size):
        for j in range(i + 1, core_size):
            if rng.random() < core_probability:
                pairs.append((core[i], core[j]))
    all_edges = background.edges()
    if pairs:
        all_edges = np.concatenate([all_edges, np.asarray(pairs, dtype=np.int64)])
    return UndirectedGraph.from_edges(n, all_edges), np.sort(core)


def planted_st_subgraph(
    n: int,
    background_edges: int,
    s_size: int,
    t_size: int,
    block_probability: float = 0.9,
    max_weight: float | None = None,
    seed: int | np.random.Generator | None = None,
) -> tuple[DirectedGraph, np.ndarray, np.ndarray]:
    """Directed power-law background plus a planted dense S -> T block.

    Returns ``(graph, S, T)`` where S and T are disjoint vertex sets and
    nearly all S x T edges exist.  This is the directed analogue of a
    planted near-clique, giving DDS algorithms a known target.
    """
    if s_size + t_size > n:
        raise GraphError("s_size + t_size cannot exceed n")
    rng = _rng(seed)
    background = chung_lu_directed(
        n, background_edges, max_weight=max_weight, seed=rng
    )
    chosen = rng.choice(n, size=s_size + t_size, replace=False)
    s_vertices, t_vertices = chosen[:s_size], chosen[s_size:]
    pairs = []
    for u in s_vertices:
        for v in t_vertices:
            if rng.random() < block_probability:
                pairs.append((u, v))
    all_edges = background.edges()
    if pairs:
        all_edges = np.concatenate([all_edges, np.asarray(pairs, dtype=np.int64)])
    graph = DirectedGraph.from_edges(n, all_edges)
    return graph, np.sort(s_vertices), np.sort(t_vertices)
