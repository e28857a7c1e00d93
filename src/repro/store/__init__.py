"""Storage/ingestion performance layer (PR 5).

``repro.store`` owns the data path *under* the graph containers:

* :mod:`repro.store.compact` — dtype-aware index compaction (int32
  narrowing when ``n, m < 2**31``, with a forced-int64 escape hatch);
* :mod:`repro.store.csr` — O(m) counting-sort CSR builders replacing the
  old O(m log m) ``np.lexsort`` construction;
* :mod:`repro.store.fingerprint` — stable content fingerprints of CSR
  buffers, the key of the result-memoization cache;
* :mod:`repro.store.reader` — vectorized edge-list text ingestion (the
  line-by-line parser stays as the strict-validation fallback);
* :mod:`repro.store.snapshot` — binary ``.npz`` snapshots with
  mmap-backed loading;
* :mod:`repro.store.shard` — partitioned (sharded) snapshots behind the
  budgeted out-of-core :class:`~repro.store.shard.ShardedGraph` facade;
* :mod:`repro.store.memo` — the fingerprint-keyed LRU result cache used
  by :func:`repro.engine.run`.

The first three modules need only NumPy and :mod:`repro.errors`, because
the graph containers import them at class-definition time; ``reader`` /
``snapshot`` / ``memo`` sit *above* the containers and are therefore
re-exported lazily to keep imports acyclic.
"""

from __future__ import annotations

from typing import Any

from .compact import (
    forced_int64,
    index_dtype,
    int64_forced,
    set_force_int64,
)
from .csr import (
    counting_sort_csr,
    csr_from_sorted_canonical,
    reference_csr_from_canonical,
)
from .fingerprint import fingerprint_arrays

__all__ = [
    "index_dtype",
    "forced_int64",
    "int64_forced",
    "set_force_int64",
    "counting_sort_csr",
    "csr_from_sorted_canonical",
    "reference_csr_from_canonical",
    "fingerprint_arrays",
    "read_edges_vectorized",
    "save_snapshot",
    "load_snapshot",
    "save_delta",
    "load_delta",
    "replay_delta",
    "save_sharded",
    "load_sharded",
    "shard_bounds",
    "ShardedGraph",
    "GraphShard",
    "ResultCache",
    "make_cache_key",
]

# Lazily-resolved exports from the modules that depend on repro.graph.
# (name -> owning submodule)
_LAZY = {
    "read_edges_vectorized": "reader",
    "save_snapshot": "snapshot",
    "load_snapshot": "snapshot",
    "save_delta": "snapshot",
    "load_delta": "snapshot",
    "replay_delta": "snapshot",
    "save_sharded": "shard",
    "load_sharded": "shard",
    "shard_bounds": "shard",
    "ShardedGraph": "shard",
    "GraphShard": "shard",
    "ResultCache": "memo",
    "make_cache_key": "memo",
}


def __getattr__(name: str) -> Any:
    """PEP 562 lazy re-exports; see the module docstring for why."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
