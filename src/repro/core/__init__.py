"""The paper's primary contribution: PKMC (UDS) and PWC (DDS).

Everything here is the ICDE'23 paper's Section IV and V machinery:
h-index sweeps with the Theorem-1 early stop, w-induced subgraph
decomposition, and [x, y]-core extraction.
"""

from .dynamic import DynamicKStarCore
from .hindex import (
    degree_descending_order,
    h_index,
    inplace_sweep,
    synchronous_sweep,
)
from .pkmc import pkmc
from .pwc import derive_cn_pair_collapse, derive_cn_pair_divisor, pwc
from .results import DDSResult, UDSResult
from .winduced import (
    WStarResult,
    edge_weights,
    winduced_decomposition,
    winduced_subgraph,
    wstar_subgraph,
)
from .xycore import XYCore, xy_core

__all__ = [
    "pkmc",
    "DynamicKStarCore",
    "pwc",
    "UDSResult",
    "DDSResult",
    "h_index",
    "synchronous_sweep",
    "inplace_sweep",
    "degree_descending_order",
    "edge_weights",
    "winduced_subgraph",
    "wstar_subgraph",
    "winduced_decomposition",
    "WStarResult",
    "XYCore",
    "xy_core",
    "derive_cn_pair_divisor",
    "derive_cn_pair_collapse",
]
