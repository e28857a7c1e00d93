"""Graph substrate: CSR graphs, builders, I/O, generators, min-degree peel.

This package is self-contained — every other subsystem (the core PKMC/PWC
algorithms, all baselines, the benchmark harness) builds on these types and
nothing here depends on anything outside :mod:`repro.errors`.
"""

from .builder import DirectedGraphBuilder, GraphBuilder
from .components import (
    component_of_vertices,
    connected_components,
    densest_component,
)
from .directed import DirectedGraph
from .generators import (
    chung_lu_directed,
    chung_lu_undirected,
    gnm_random_directed,
    gnm_random_undirected,
    planted_dense_subgraph,
    planted_st_subgraph,
    powerlaw_weights,
)
from .io import (
    load_npz,
    read_directed_edgelist,
    read_undirected_edgelist,
    save_npz,
    write_edgelist,
)
from .peeling import min_degree_order
from .sampling import DEFAULT_FRACTIONS, edge_fraction_series
from .stats import (
    DirectedGraphSummary,
    GraphSummary,
    powerlaw_exponent_estimate,
    summarize,
    summarize_directed,
)
from .undirected import UndirectedGraph

__all__ = [
    "UndirectedGraph",
    "DirectedGraph",
    "connected_components",
    "component_of_vertices",
    "densest_component",
    "GraphBuilder",
    "DirectedGraphBuilder",
    "min_degree_order",
    "read_undirected_edgelist",
    "read_directed_edgelist",
    "write_edgelist",
    "save_npz",
    "load_npz",
    "gnm_random_undirected",
    "gnm_random_directed",
    "chung_lu_undirected",
    "chung_lu_directed",
    "planted_dense_subgraph",
    "planted_st_subgraph",
    "powerlaw_weights",
    "edge_fraction_series",
    "DEFAULT_FRACTIONS",
    "GraphSummary",
    "DirectedGraphSummary",
    "summarize",
    "summarize_directed",
    "powerlaw_exponent_estimate",
]
