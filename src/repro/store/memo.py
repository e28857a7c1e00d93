"""Fingerprint-keyed LRU memoization of solver results.

Repeated ``engine.run()`` calls against an unchanged graph dominate the
serving workload the ROADMAP targets; with content-addressed graphs
(:mod:`repro.store.fingerprint`) the triple (graph fingerprint, solver
identity, context-relevant fields) fully determines a run's outcome, so
the engine can answer from a bounded LRU cache instead of recomputing.

Invalidation is structural *and* optionally temporal: a graph mutated
through ``DynamicKStarCore`` rebuilds its CSR arrays and therefore
hashes to a new fingerprint — stale entries are never *wrong*, only
unreachable until evicted — while a cache built with ``ttl=`` seconds
additionally expires entries by insertion age, which the serving layer
(:mod:`repro.serve`) uses to bound staleness of long-lived processes.
Expiry consults an injectable monotonic ``clock`` so tests (and the
simulated-concurrent server) drive it deterministically. Cached results
are cloned on every hit (arrays, extras and report included) so callers
can never corrupt the cached copy.

Caching is opt-in: pass a :class:`ResultCache` via
``ExecutionContext(cache=...)``.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable, Optional

import numpy as np

__all__ = ["ResultCache", "make_cache_key"]


def _hashable(value: Any) -> Optional[Hashable]:
    """Best-effort conversion to a hashable key component (None = no)."""
    if isinstance(value, (str, int, float, bool, bytes)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        parts = tuple(_hashable(item) for item in value)
        return None if any(p is None for p in parts) else parts
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (f.name, _hashable(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    return None


def make_cache_key(
    fingerprint: str,
    kind: str,
    solver: str,
    ctx,
    options: dict,
    backend: Optional[str] = None,
) -> Optional[tuple]:
    """Cache key for a run, or None when the run is not cacheable.

    Covers every context field that can influence a solver's output or
    its report (thread count changes simulated seconds; seed, sanitize,
    budgets and cluster shape change behavior). A pre-supplied
    ``ctx.runtime`` carries arbitrary prior state, and unhashable option
    values cannot be keyed — both make the run uncacheable.

    ``backend`` is the *resolved* array-backend name the engine will run
    under.  Backends produce bit-identical results, but the report
    records which one executed, so a hit must come from a run on the
    same backend — the engine passes the resolved name rather than the
    raw ``ctx.backend`` so ``None`` (deferred to the environment) and an
    explicit name key identically.
    """
    if ctx.runtime is not None:
        return None
    option_items = []
    for name in sorted(options):
        converted = _hashable(options[name])
        if converted is None and options[name] is not None:
            return None
        option_items.append((name, converted))
    cluster = _hashable(ctx.cluster_config)
    if cluster is None and ctx.cluster_config is not None:
        return None
    return (
        fingerprint,
        kind,
        solver,
        backend,
        ctx.num_threads,
        ctx.seed,
        ctx.sanitize,
        ctx.time_limit,
        ctx.memory_limit_bytes,
        cluster,
        tuple(option_items),
    )


def clone_result(result):
    """Deep-enough copy of a solver result for safe cache sharing.

    Copies every array/dict/list field so neither side can mutate the
    other's view; scalar fields and the frozen report are shared.
    """
    clone = copy.copy(result)
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if isinstance(value, np.ndarray):
            setattr(clone, field.name, value.copy())
        elif isinstance(value, dict):
            setattr(clone, field.name, dict(value))
        elif isinstance(value, list):
            setattr(clone, field.name, list(value))
    return clone


class ResultCache:
    """Bounded LRU cache of solver results keyed by :func:`make_cache_key`.

    ``ttl`` (seconds) bounds the *insertion age* of a servable entry:
    an entry older than ``ttl`` at lookup time is treated as a miss,
    dropped, and counted in ``expired``. Age is measured by ``clock``, a
    zero-argument monotonic-seconds callable — inject a fake for
    deterministic expiry in tests; the default is the process monotonic
    clock. ``ttl=None`` (the default) never expires, which is exactly
    the pre-TTL behaviour: structural fingerprint invalidation plus LRU
    capacity eviction.

    TTL and LRU interact in two deliberate ways: a hit refreshes LRU
    recency but *not* the insertion stamp (re-``put`` to re-arm), and
    capacity overflow purges expired entries first so a dead entry can
    never push out a live one.
    """

    def __init__(
        self,
        max_entries: int = 128,
        ttl: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.max_entries = max_entries
        self.ttl = ttl
        # Real elapsed time is the whole point of a TTL; deterministic
        # tests and the simulated-concurrent server inject their own
        # clock instead of relying on this default.
        self._clock = clock if clock is not None else time.monotonic  # repro-lint: disable=R001 (injectable TTL clock)
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        self._stamps: "OrderedDict[tuple, float]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _is_expired(self, key: tuple, now: float) -> bool:
        """Whether ``key``'s entry has outlived the TTL at time ``now``."""
        if self.ttl is None:
            return False
        return now - self._stamps[key] > self.ttl

    def get(self, key: Optional[tuple]):
        """Return a cloned cached result, or None on miss/expiry."""
        if key is None:
            return None
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        if self._is_expired(key, self._clock()):
            del self._entries[key]
            del self._stamps[key]
            self.expired += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return clone_result(cached)

    def put(self, key: Optional[tuple], result) -> None:
        """Store a cloned result, evicting expired then least-recent entries."""
        if key is None:
            return
        now = self._clock()
        self._entries[key] = clone_result(result)
        self._entries.move_to_end(key)
        self._stamps[key] = now
        if len(self._entries) > self.max_entries:
            self.purge_expired(now=now)
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            del self._stamps[evicted]

    def purge_expired(self, now: Optional[float] = None) -> int:
        """Drop every expired entry eagerly; return how many were dropped.

        A no-op (returning 0) on caches without a TTL. ``now`` defaults
        to the cache's clock — pass it to keep one consistent timestamp
        across a batch of cache operations.
        """
        if self.ttl is None:
            return 0
        if now is None:
            now = self._clock()
        dead = [key for key in self._entries if self._is_expired(key, now)]
        for key in dead:
            del self._entries[key]
            del self._stamps[key]
        self.expired += len(dead)
        return len(dead)

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry keyed to one graph fingerprint; return the count.

        Fingerprint-granular invalidation for the streaming layer: when a
        maintained graph mutates away from a state, the session retires
        that state's entries without touching results cached for *other*
        graphs (``clear()`` would).  Every cache key built by
        :func:`make_cache_key` — and the streaming session's own keys —
        leads with the graph fingerprint, so matching ``key[0]`` is
        exact.  Dropped entries accumulate in the ``invalidated``
        counter (reset by :meth:`clear`).
        """
        dead = [
            key for key in self._entries
            if key and key[0] == fingerprint
        ]
        for key in dead:
            del self._entries[key]
            del self._stamps[key]
        self.invalidated += len(dead)
        return len(dead)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/expired/invalidated counters."""
        self._entries.clear()
        self._stamps.clear()
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.invalidated = 0

