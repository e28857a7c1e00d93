"""Descriptive statistics over graphs (degree distributions, summaries).

Used by the dataset registry to report how closely a synthetic replica
matches its real counterpart, and by examples for exploratory output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directed import DirectedGraph
from .undirected import UndirectedGraph

__all__ = [
    "GraphSummary",
    "DirectedGraphSummary",
    "summarize",
    "summarize_directed",
    "powerlaw_exponent_estimate",
]


@dataclass(frozen=True)
class GraphSummary:
    """Headline statistics of an undirected graph (cf. paper Table 4)."""

    num_vertices: int
    num_edges: int
    max_degree: int
    mean_degree: float
    density: float


@dataclass(frozen=True)
class DirectedGraphSummary:
    """Headline statistics of a directed graph (cf. paper Table 5)."""

    num_vertices: int
    num_edges: int
    max_out_degree: int
    max_in_degree: int
    mean_degree: float


def summarize(graph: UndirectedGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    n = graph.num_vertices
    degrees = graph.degrees()
    return GraphSummary(
        num_vertices=n,
        num_edges=graph.num_edges,
        max_degree=int(degrees.max(initial=0)),
        mean_degree=float(degrees.mean()) if n else 0.0,
        density=graph.density(),
    )


def summarize_directed(graph: DirectedGraph) -> DirectedGraphSummary:
    """Compute a :class:`DirectedGraphSummary` for ``graph``."""
    n = graph.num_vertices
    return DirectedGraphSummary(
        num_vertices=n,
        num_edges=graph.num_edges,
        max_out_degree=graph.max_out_degree(),
        max_in_degree=graph.max_in_degree(),
        mean_degree=(2.0 * graph.num_edges / n) if n else 0.0,
    )


def powerlaw_exponent_estimate(degrees: np.ndarray, d_min: int = 2) -> float:
    """Hill estimator of the power-law tail exponent of a degree sample.

    alpha_hat = 1 + k / sum(ln(d_i / (d_min - 1/2))) over degrees >= d_min.
    Returns NaN when fewer than two qualifying degrees exist.
    """
    tail = np.asarray(degrees, dtype=np.float64)
    tail = tail[tail >= d_min]
    if tail.size < 2:
        return float("nan")
    return float(1.0 + tail.size / np.log(tail / (d_min - 0.5)).sum())
