"""Undirected DSD baselines compared against PKMC in the paper's Exp-1..4."""

from .binary_search import kstar_binary_search_uds
from .charikar import charikar_peel
from .coreexact import coreexact_uds
from .exact import brute_force_uds, exact_uds_goldberg
from .greedypp import greedypp_uds
from .local import local_core_decomposition, local_uds
from .pbu import pbu_uds
from .pfw import best_prefix_density, frank_wolfe_loads, pfw_uds
from .pkc import pkc_core_decomposition, pkc_uds
from .truss import edge_support, max_truss_uds, truss_decomposition

__all__ = [
    "charikar_peel",
    "kstar_binary_search_uds",
    "coreexact_uds",
    "edge_support",
    "truss_decomposition",
    "max_truss_uds",
    "exact_uds_goldberg",
    "brute_force_uds",
    "greedypp_uds",
    "local_uds",
    "local_core_decomposition",
    "pbu_uds",
    "pfw_uds",
    "frank_wolfe_loads",
    "best_prefix_density",
    "pkc_uds",
    "pkc_core_decomposition",
]
