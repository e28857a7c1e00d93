"""Dtype-aware index compaction.

CSR index arrays (``indptr``, ``indices``) default to int64, which
doubles the resident footprint of every graph whose vertex and edge
counts fit comfortably in 32 bits — i.e. every graph this library will
ever load on one machine. :func:`index_dtype` picks the narrowest safe
index dtype for a graph, and the containers thread it through their
scratch buffers so hot paths never silently upcast back to int64.

An escape hatch (:func:`set_force_int64` / :func:`forced_int64`) pins
everything back to int64, for debugging and for the memory-reduction
benchmark's "before" leg.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

__all__ = [
    "INT32_MAX",
    "index_dtype",
    "set_force_int64",
    "int64_forced",
    "forced_int64",
]

# Largest value an int32 index array may need to hold. ``indptr`` stores
# offsets up to the number of stored arcs, and the hindex scratch
# ``bin_ptr`` stores offsets up to (arcs + num_vertices); callers pass
# the largest such *entry value*, not just n or m.
INT32_MAX = np.iinfo(np.int32).max

_FORCE_INT64 = False


def set_force_int64(enabled: bool) -> bool:
    """Globally pin index arrays to int64 (returns the previous value).

    Narrowing is on by default; this is the escape hatch for debugging
    suspected overflow and for apples-to-apples memory comparisons.
    """
    global _FORCE_INT64
    previous = _FORCE_INT64
    _FORCE_INT64 = bool(enabled)
    return previous


def int64_forced() -> bool:
    """Whether the forced-int64 escape hatch is currently engaged."""
    return _FORCE_INT64


@contextlib.contextmanager
def forced_int64() -> Iterator[None]:
    """Context manager engaging the forced-int64 escape hatch."""
    previous = set_force_int64(True)
    try:
        yield
    finally:
        set_force_int64(previous)


def index_dtype(num_vertices: int, max_entry: int) -> np.dtype:
    """Narrowest safe index dtype for a graph.

    ``num_vertices`` bounds vertex ids (``indices`` entries, scratch row
    ids); ``max_entry`` bounds offset values (``indptr`` entries — pass
    the largest offset any index-typed buffer will hold, e.g. ``2*m + n``
    for graphs that build the hindex-bin scratch).
    """
    if _FORCE_INT64:
        return np.dtype(np.int64)
    if num_vertices <= INT32_MAX and max_entry <= INT32_MAX:
        return np.dtype(np.int32)
    return np.dtype(np.int64)
