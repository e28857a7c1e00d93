"""Streaming sessions: batched edge updates over a maintained k*-core.

A :class:`StreamSession` owns one evolving graph and answers densest-
subgraph queries from the incrementally maintained structure
(:class:`~repro.core.dynamic.DynamicKStarCore`) instead of re-running a
solver per batch.  Around the maintainer it adds the service plumbing
the rest of the repo expects:

* **registry gating** — the session only wraps solvers whose
  :class:`~repro.engine.spec.SolverSpec` declares ``supports_streaming``
  (today: ``pkmc``, whose k*-core answer *is* the maintained state);
* **reports** — :meth:`query` returns a result whose
  :class:`~repro.engine.report.RunReport` carries a
  :class:`~repro.engine.report.StreamRecord` (``updates_applied`` /
  ``affected_vertices`` / ``incremental_fraction`` / ``rebuilds``)
  stamped through the engine's :func:`~repro.engine.report.stamp_report`;
* **fingerprint-lineage cache invalidation** — with a
  :class:`~repro.store.memo.ResultCache` attached, converged states are
  served from cache keyed by the graph's content fingerprint, and a
  mutation retires exactly the fingerprints *this* session's graph has
  occupied (``cache.invalidate_fingerprint``), never other graphs'
  entries;
* **delta logging** — every applied mutation is appended to an ordered
  op log, exportable via :meth:`save_delta` as a
  :func:`~repro.store.snapshot.save_delta` edge-delta snapshot that
  replays to a bit-identical CSR.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..core.dynamic import DynamicKStarCore
from ..core.results import UDSResult
from ..engine.report import StreamRecord, stamp_report
from ..engine.spec import get_solver
from ..errors import EngineError
from ..store.memo import ResultCache

__all__ = ["StreamSession"]

_MODES = ("incremental", "rebuild")


class StreamSession:
    """One evolving graph plus the machinery to query it cheaply.

    ``mode="incremental"`` (default) maintains core numbers through the
    localized per-update path with rebuild fallback;
    ``mode="rebuild"`` pins the historical rebuild-per-refresh baseline
    (what the streaming bench compares against).  ``cache`` is optional;
    without one every query recomputes nothing anyway — the maintained
    state is already warm — but with one, repeated queries of an
    unchanged graph skip even the O(n) answer extraction.
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        mode: str = "incremental",
        solver: str = "pkmc",
        region_fraction: float = 0.25,
        cache: ResultCache | None = None,
    ):
        if mode not in _MODES:
            raise EngineError(
                f"unknown streaming mode {mode!r}; choose from {_MODES}"
            )
        spec = get_solver("uds", solver)
        if not spec.supports_streaming:
            raise EngineError(
                f"solver {solver!r} does not declare supports_streaming; "
                "its answers cannot be maintained incrementally"
            )
        self._spec = spec
        self._mode = mode
        self._cache = cache
        self._tracker = DynamicKStarCore(
            num_vertices,
            incremental=(mode == "incremental"),
            region_fraction=region_fraction,
        )
        self._delta: list[tuple[int, int, int]] = []
        self._lineage: list[str] = []
        self._base_fingerprint: str | None = None

    @classmethod
    def from_graph(cls, graph, **kwargs) -> "StreamSession":
        """Seed a session with an existing graph as the delta base.

        The graph's fingerprint becomes the base of the session's delta
        log, so :meth:`save_delta` writes a log replayable against it.
        Its edge array seeds the empty tracker in one pass, leaving the
        state that applying the same edges one by one would.
        """
        session = cls(graph.num_vertices, **kwargs)
        session._tracker.insert_edges(graph.edges())
        session._delta.clear()  # the seed is the base, not part of the log
        session._base_fingerprint = graph.fingerprint()
        return session

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _retire_lineage(self) -> int:
        """Invalidate cached results for every fingerprint this graph held."""
        if self._cache is None or not self._lineage:
            self._lineage.clear()
            return 0
        dropped = 0
        for fingerprint in self._lineage:
            dropped += self._cache.invalidate_fingerprint(fingerprint)
        self._lineage.clear()
        return dropped

    def apply(
        self,
        insertions: Sequence | Iterable = (),
        deletions: Sequence | Iterable = (),
    ) -> dict[str, int]:
        """Apply one batch of edge mutations; return what actually changed.

        Insertions land before deletions; both are validated up front
        (:class:`~repro.errors.StreamMutationError` leaves the graph
        untouched).  Duplicate insertions and absent deletions are
        counted-out no-ops and do not enter the delta log.  Any applied
        change retires the session's cached fingerprint lineage.
        """
        tracker = self._tracker
        # Canonicalize BOTH batches before applying anything, so one
        # malformed row cannot leave the batch half-applied.
        insert_keys = [tracker._canonical(u, v) for u, v in insertions]
        delete_keys = [tracker._canonical(u, v) for u, v in deletions]
        inserted = deleted = 0
        for u, v in insert_keys:
            if tracker.insert_edge(u, v):
                self._delta.append((+1, u, v))
                inserted += 1
        for u, v in delete_keys:
            if tracker.delete_edge(u, v):
                self._delta.append((-1, u, v))
                deleted += 1
        invalidated = self._retire_lineage() if inserted or deleted else 0
        return {
            "inserted": inserted,
            "deleted": deleted,
            "invalidated": invalidated,
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """The session's refresh mode (``incremental`` or ``rebuild``)."""
        return self._mode

    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return self._tracker.num_edges

    @property
    def num_vertices(self) -> int:
        """Number of vertices (fixed at construction)."""
        return self._tracker.num_vertices

    def k_star(self) -> int:
        """Current maximum core number (refreshing if needed)."""
        return self._tracker.k_star()

    def core_numbers(self) -> np.ndarray:
        """Current core numbers (a copy, refreshing if needed)."""
        return self._tracker.core_numbers()

    def graph(self):
        """The current graph as a materialized CSR."""
        return self._tracker.graph()

    def _incremental_fraction(self) -> float:
        stats = self._tracker.stats()
        refreshes = stats["incremental_refreshes"] + stats["rebuilds"]
        if refreshes == 0:
            return 1.0 if self._mode == "incremental" else 0.0
        return stats["incremental_refreshes"] / refreshes

    def query(self) -> UDSResult:
        """The current densest subgraph, with a stamped streaming report.

        Answers come warm from the maintained structure; with a cache
        attached, a converged state is keyed by its content fingerprint
        and re-served as a clone on repeat queries.  Either way the
        result's report carries the session's maintenance counters.
        """
        tracker = self._tracker
        cache_hit = False
        if self._cache is not None:
            graph = tracker.graph()  # refreshes + materializes
            fingerprint = graph.fingerprint()
            key = (fingerprint, self._spec.kind, self._spec.name, "stream")
            cached = self._cache.get(key)
            if cached is not None:
                result = cached
                cache_hit = True
            else:
                result = tracker.densest_subgraph()
                self._cache.put(key, result)
            if fingerprint not in self._lineage:
                self._lineage.append(fingerprint)
        else:
            result = tracker.densest_subgraph()
            graph = None
        stats = tracker.stats()
        return stamp_report(
            result,
            stream=StreamRecord(
                updates_applied=stats["updates_applied"],
                affected_vertices=stats["affected_total"],
                incremental_fraction=self._incremental_fraction(),
                rebuilds=stats["rebuilds"],
            ),
            cache_hit=cache_hit,
            spec=self._spec,
            graph=graph,
        )

    # ------------------------------------------------------------------
    # Delta log
    # ------------------------------------------------------------------
    @property
    def delta_log(self) -> tuple[tuple[int, int, int], ...]:
        """The ordered ``(op, u, v)`` mutations applied since the base."""
        return tuple(self._delta)

    def save_delta(self, path) -> int:
        """Export the session's op log as an edge-delta snapshot.

        Requires a base graph (:meth:`from_graph`); the written log
        replays against that base to a CSR bit-identical to
        :meth:`graph` — see :func:`repro.store.snapshot.replay_delta`.
        Returns the number of logged ops written.
        """
        if self._base_fingerprint is None:
            raise EngineError(
                "save_delta needs a base graph: build the session with "
                "StreamSession.from_graph(...) so the log has a base "
                "fingerprint to replay against"
            )
        from ..store.snapshot import save_delta

        return save_delta(path, self._base_fingerprint, self._delta)

    def stats(self) -> dict:
        """Session counters: maintainer stats plus streaming derivates."""
        stats = dict(self._tracker.stats())
        stats["mode"] = self._mode
        stats["incremental_fraction"] = self._incremental_fraction()
        stats["delta_ops"] = len(self._delta)
        stats["lineage_depth"] = len(self._lineage)
        return stats
