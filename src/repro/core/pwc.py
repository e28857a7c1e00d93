"""PWC — Parallel [x*, y*]-core computation (paper Algorithm 4).

Pipeline:

1. compute the w*-induced subgraph H with :func:`~repro.core.winduced.
   wstar_subgraph` (Algorithm 3, with the d_max pruning Remark);
2. derive the maximum cn-pair [x*, y*] from H, either by the paper's
   collapse-based scan (Lemma 6) or by divisor-pair checks inside H (both
   are cheap because H is small — Table 7);
3. extract the [x*, y*]-core and report S, T and the density.

The [x*, y*]-core is a 2-approximation of the directed densest subgraph
(Ma et al.; paper Lemma 3).

Reproduction finding: the paper's Theorem 2 (w* = x* . y*) holds only as
an upper bound in general — see :func:`derive_cn_pair_divisor` — so both
extraction paths verify the pair and descend below w* when needed,
keeping PWC correct on all inputs.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..engine.spec import register_solver
from ..errors import AlgorithmError, EmptyGraphError
from ..graph.directed import DirectedGraph
from ..runtime.simruntime import SimRuntime
from ..store.csr import sorted_unique
from .results import DDSResult
from .winduced import WStarResult, winduced_subgraph, wstar_subgraph
from .xycore import XYCore, xy_core

__all__ = ["pwc", "derive_cn_pair_divisor", "derive_cn_pair_collapse"]


def _divisor_pairs(w: int) -> list[tuple[int, int]]:
    """All (x, y) with x * y == w, x ascending."""
    pairs = []
    for x in range(1, int(np.sqrt(w)) + 1):
        if w % x == 0:
            pairs.append((x, w // x))
            if x != w // x:
                pairs.append((w // x, x))
    pairs.sort()
    return pairs


def derive_cn_pair_divisor(
    graph: DirectedGraph,
    wstar: WStarResult,
    runtime: SimRuntime | None = None,
) -> tuple[int, int, XYCore]:
    """Find the maximum cn-pair by descending divisor-pair checks.

    The paper's Theorem 2 claims x* . y* = w*, so (x*, y*) should be among
    the divisor pairs of w*; for each candidate we peel the [x, y]-core
    within the w*-induced subgraph and keep the existing core of highest
    density.

    **Reproduction finding**: Theorem 2 only holds as an upper bound,
    w* >= x* . y*.  A 9-vertex counterexample (see
    ``tests/core/test_pwc.py::TestTheorem2Gap``) has w* = 8 with maximum
    cn-pair [2, 3]: mixed out/in-degrees can keep every edge weight >= w*
    without any uniform [x, y]-core of that product.  When no divisor pair
    of w* yields a core, this routine therefore *descends*: for each
    candidate product P = w* - 1, w* - 2, ... it rebuilds the P-induced
    subgraph (which contains every [x, y]-core with x . y = P, by Lemma 4
    and the nested property) and checks P's divisor pairs, stopping at the
    first product with an existing core — which is then the true maximum
    cn-pair.  The descent costs nothing when Theorem 2 holds, as it does
    on all 12 replicas and on the paper's worked examples.
    """
    product = wstar.w_star
    mask = wstar.edge_mask
    while product >= 1:
        if mask.any():
            alive_src = graph.edge_src[mask]
            alive_dst = graph.edge_dst[mask]
            dout_max = int(
                np.bincount(alive_src, minlength=graph.num_vertices).max()
            )
            din_max = int(
                np.bincount(alive_dst, minlength=graph.num_vertices).max()
            )
            best: tuple[float, int, int, XYCore] | None = None
            for x, y in _divisor_pairs(product):
                if x > dout_max or y > din_max:
                    continue
                core = xy_core(graph, x, y, edge_mask=mask, runtime=runtime)
                if core.exists:
                    candidate = (core.density(), x, y, core)
                    if best is None or candidate[0] > best[0]:
                        best = candidate
            if best is not None:
                _, x, y, core = best
                return x, y, core
        product -= 1
        mask = winduced_subgraph(graph, product, runtime=runtime)
    raise AlgorithmError(
        "no [x, y]-core exists at any product; the graph must be edgeless"
    )


def derive_cn_pair_collapse(
    graph: DirectedGraph,
    wstar: WStarResult,
    runtime: SimRuntime | None = None,
) -> tuple[int, int] | None:
    """Find [x*, y*] by the paper's collapse-based scan (Algorithm 4).

    Among H's edges of weight exactly w*, the candidate cn-pairs are the
    endpoint degree pairs.  Processing candidate in-degree values d* one at
    a time, remove the weight-w* edges whose destination in-degree is d*
    (together with any edge whose weight has dropped below w*); by Lemma 6
    the value whose removal collapses H reveals the maximum cn-pair
    (w*/d*, d*).  Returns None if the scan is inconclusive (callers then
    fall back to the divisor method).
    """
    w_star = wstar.w_star
    src, dst = graph.edge_src, graph.edge_dst
    alive = wstar.edge_mask.copy()
    alive_ids = np.flatnonzero(alive)
    dout = np.bincount(src[alive_ids], minlength=graph.num_vertices).astype(np.int64)
    din = np.bincount(dst[alive_ids], minlength=graph.num_vertices).astype(np.int64)

    weights = dout[src[alive_ids]] * din[dst[alive_ids]]
    at_wstar = alive_ids[weights == w_star]
    if runtime is not None:
        runtime.parfor(float(alive_ids.size))
    # Candidate in-degree values, ascending (Example 4 removes the [6, 2]
    # pairs, i.e. d* = 2, before the true [4, 3] pair).
    candidates = sorted_unique(din[dst[at_wstar]])
    last_pair: tuple[int, int] | None = None
    for d_star in candidates:
        d_star = int(d_star)
        if w_star % d_star != 0:
            continue
        last_pair = (w_star // d_star, d_star)
        while True:
            alive_ids = np.flatnonzero(alive)
            if alive_ids.size == 0:
                return last_pair
            cur_weights = dout[src[alive_ids]] * din[dst[alive_ids]]
            below = cur_weights < w_star
            exact = (cur_weights == w_star) & (din[dst[alive_ids]] == d_star)
            bad = below | exact
            if runtime is not None:
                runtime.parfor(
                    float(alive_ids.size), atomic_ops=int(np.count_nonzero(bad))
                )
            if not bad.any():
                break
            dead_ids = alive_ids[bad]
            alive[dead_ids] = False
            np.subtract.at(dout, src[dead_ids], 1)
            np.subtract.at(din, dst[dead_ids], 1)
    # All candidates processed without a collapse: inconclusive.
    return None


@register_solver(
    "pwc",
    kind="dds",
    guarantee="2-approx",
    cost="parallel",
    supports_runtime=True,
)
def pwc(
    graph: DirectedGraph,
    runtime: SimRuntime | None = None,
    start_at_dmax: bool = True,
    extraction: Literal["collapse", "divisor"] = "collapse",
) -> DDSResult:
    """Return the [x*, y*]-core of ``graph`` as a 2-approximate DDS.

    Parameters
    ----------
    graph:
        Input directed graph; must have at least one edge.
    runtime:
        Optional :class:`SimRuntime` accounting every parallel peeling
        round of Algorithm 3/4.
    start_at_dmax:
        Apply the w >= d_max initial pruning (the paper's Remark); the
        ablation benchmark toggles this.
    extraction:
        ``"collapse"`` uses the paper's Lemma-6 scan and falls back to the
        divisor descent if inconclusive or unverifiable; ``"divisor"``
        always uses the provably-safe descending enumeration.

    Returns
    -------
    DDSResult
        With ``x``/``y``/``w_star`` filled and ``extras`` carrying the
        Table-7 sizes: ``size_first`` (edges after the d_max prune),
        ``size_wstar`` (edges of the w*-induced subgraph) and
        ``size_dds`` (edges of the returned core).
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    rt = runtime or SimRuntime(num_threads=1)
    with rt.parallel_region():
        wstar = wstar_subgraph(graph, runtime=rt, start_at_dmax=start_at_dmax)

        used_fallback = False
        pair: tuple[int, int] | None = None
        if extraction == "collapse":
            pair = derive_cn_pair_collapse(graph, wstar, runtime=rt)
            if pair is not None:
                x, y = pair
                core = xy_core(graph, x, y, edge_mask=wstar.edge_mask, runtime=rt)
                if not core.exists:
                    pair = None
            if pair is None:
                used_fallback = True
        if pair is None:
            x, y, core = derive_cn_pair_divisor(graph, wstar, runtime=rt)

    density = core.density()
    return DDSResult(
        algorithm="PWC",
        s=core.s,
        t=core.t,
        density=density,
        x=x,
        y=y,
        w_star=wstar.w_star,
        iterations=wstar.rounds,
        simulated_seconds=rt.now,
        extras={
            "size_first": wstar.size_after_prune,
            "size_wstar": wstar.size_wstar,
            "size_dds": core.num_edges,
            "extraction_fallback": used_fallback,
            "theorem2_gap": wstar.w_star - x * y,
            "level_sizes": wstar.level_sizes,
        },
    )
