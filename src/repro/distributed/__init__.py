"""Simulated distributed (BSP/Pregel) execution — the paper's future work.

The conclusion of the paper proposes porting the algorithms to a
distributed platform such as GraphX for graphs that exceed one machine.
This package realises that direction in simulation: a deterministic
BSP cost model and vertex-centric ports of PKMC and PWC, so the
shared-memory vs. distributed trade-off (communication per superstep
vs. per-core work) can be studied quantitatively.  Each port is one
superstep loop over two partitions: a hash partition of an in-memory
graph, or one worker per shard of a
:class:`~repro.store.shard.ShardedGraph`.  See
``examples/distributed_study.py``.
"""

from .cluster import BSPAccountant, ClusterConfig
from .pkmc_bsp import distributed_pkmc
from .pwc_bsp import distributed_pwc

__all__ = [
    "BSPAccountant",
    "ClusterConfig",
    "distributed_pkmc",
    "distributed_pwc",
]
