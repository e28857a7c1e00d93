"""PFKS — the fixed Khuller–Saha directed approximation (2009).

Khuller & Saha's linear-time DDS algorithm avoids trying all Theta(n^2)
ratios; the paper uses the *fixed* variant (Ma et al. showed the original
2-approximation claim was wrong), which still needs n peeling rounds —
O(n (n + m)) total — and therefore also fails to finish within the 10^5 s
budget on every dataset in Exp-5.  Parallelised with one peel per task.

Candidate ratios: n geometrically spread values of |S|/|T| in [1/n, n]
(one per round), each peeled with Charikar's ratio rule.  As with PBS the
full projected cost is charged up front so the replicas DNF under the
experiment budget without executing n real peels.
"""

from __future__ import annotations

import numpy as np

from ...engine.spec import register_solver
from ...errors import EmptyGraphError
from ...graph.directed import DirectedGraph
from ...runtime.simruntime import SimRuntime
from ...store.csr import sorted_unique
from ...core.results import DDSResult
from .common import charge_projected_tasks, charikar_directed_peel_for_ratio

__all__ = ["pfks_dds"]


@register_solver(
    "pfks", kind="dds", guarantee="2-approx", cost="parallel", supports_runtime=True
)
def pfks_dds(
    graph: DirectedGraph,
    runtime: SimRuntime | None = None,
    max_rounds: int | None = None,
) -> DDSResult:
    """Approximate DDS with n ratio-peel rounds (the fixed KS variant).

    ``max_rounds`` caps the number of executed rounds for tests; the
    simulated charge always reflects the full n rounds of the algorithm.
    """
    if graph.num_edges == 0:
        raise EmptyGraphError("DDS is undefined on a graph without edges")
    n = graph.num_vertices
    rt = runtime or SimRuntime(num_threads=1)
    # Each task is an inherently serial heap-based peel of the full graph.
    units_per_task = 2.0 * (n + graph.num_edges) * max(np.log2(n + 2), 1.0)
    with rt.parallel_region():
        charge_projected_tasks(rt, n, units_per_task)

    rounds = n if max_rounds is None else min(n, max_rounds)
    # n geometric ratio candidates covering [1/n, n].
    exponents = np.linspace(-1.0, 1.0, num=max(rounds, 2))
    ratios = sorted_unique(np.power(float(n), exponents))
    best = (-1.0, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    peels = 0
    for ratio in ratios:
        s, t, density = charikar_directed_peel_for_ratio(graph, float(ratio))
        peels += 1
        if density > best[0]:
            best = (density, s, t)
    density, s, t = best
    return DDSResult(
        algorithm="PFKS",
        s=s,
        t=t,
        density=density,
        iterations=peels,
        simulated_seconds=rt.now,
    )
