"""Edge sampling used by the scalability experiments (Exp-4 and Exp-8).

The paper builds its scalability curves by "randomly selecting 20%, 40%,
60%, 80% and 100% of the edges" of each graph and running every algorithm on
the induced subgraphs.  :func:`edge_fraction_series` reproduces exactly that
protocol with nested samples (the 40% sample contains the 20% one), so the
series is monotone in work.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GraphError
from .directed import DirectedGraph
from .undirected import UndirectedGraph

__all__ = ["edge_fraction_series", "DEFAULT_FRACTIONS"]

DEFAULT_FRACTIONS: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0)

Graph = UndirectedGraph | DirectedGraph


def edge_fraction_series(
    graph: Graph,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    seed: int | None = 0,
) -> list[tuple[float, Graph]]:
    """Return ``[(fraction, subgraph), ...]`` with *nested* edge samples.

    A single random permutation of the edges is drawn; the f-fraction sample
    keeps the first ``round(f * m)`` edges of it.  Larger fractions therefore
    strictly contain smaller ones.
    """
    for fraction in fractions:
        if not 0.0 < fraction <= 1.0:
            raise GraphError(f"fractions must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    m = graph.num_edges
    order = rng.permutation(m)
    series: list[tuple[float, Graph]] = []
    for fraction in sorted(fractions):
        if fraction == 1.0:
            series.append((1.0, graph))
            continue
        keep_count = int(round(m * fraction))
        mask = np.zeros(m, dtype=bool)
        mask[order[:keep_count]] = True
        series.append((fraction, graph.subgraph_from_edge_mask(mask)))
    return series
