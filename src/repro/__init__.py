"""repro — scalable densest subgraph discovery.

A from-scratch reproduction of Luo, Tang, Fang, Ma & Zhou, *Scalable
Algorithms for Densest Subgraph Discovery* (ICDE 2023): the PKMC and PWC
parallel 2-approximation algorithms, every baseline the paper compares
against, a simulated shared-memory runtime standing in for OpenMP, and a
benchmark harness regenerating each of the paper's tables and figures.

Quick start::

    from repro import densest_subgraph, directed_densest_subgraph
    from repro.graph import UndirectedGraph

    g = UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    print(densest_subgraph(g))            # PKMC: the k*-core
"""

from .api import densest_subgraph, directed_densest_subgraph
from .core.results import DDSResult, UDSResult
from .engine import ExecutionContext, RunReport, SolverSpec
from .errors import (
    AlgorithmError,
    DatasetError,
    EmptyGraphError,
    EngineError,
    GraphError,
    GraphFormatError,
    ReproError,
    SimMemoryLimitExceeded,
    SimTimeLimitExceeded,
    SimulationError,
)
from .graph.directed import DirectedGraph
from .graph.undirected import UndirectedGraph
from .runtime.cost import CostModel
from .runtime.simruntime import SimRuntime

__version__ = "1.0.0"

__all__ = [
    "densest_subgraph",
    "directed_densest_subgraph",
    "UDSResult",
    "DDSResult",
    "ExecutionContext",
    "RunReport",
    "SolverSpec",
    "UndirectedGraph",
    "DirectedGraph",
    "SimRuntime",
    "CostModel",
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "EmptyGraphError",
    "AlgorithmError",
    "EngineError",
    "SimulationError",
    "SimTimeLimitExceeded",
    "SimMemoryLimitExceeded",
    "DatasetError",
    "__version__",
]
