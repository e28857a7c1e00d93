"""Dynamic k*-core maintenance under edge insertions and deletions.

The paper's intro applications (fraud detection, community tracking) are
streaming by nature, and its related work cites fully-dynamic densest
subgraph (Sawlani & Wang).  This module provides the h-index-flavoured
dynamic counterpart of PKMC: a maintained vertex array h that always
equals the core numbers between refreshes, re-converged lazily after
each batch of mutations — *locally* when the affected region is small,
by a full rebuild otherwise.

The incremental path replays the pending batch one update at a time
against the exact fixed point, using two standard localization facts
(Sarıyüce et al., "Local Algorithms for Hierarchical Dense Subgraph
Discovery"; see ``docs/streaming.md`` for the full argument):

* **no-change test** — h *is* the core array iff it is the fixed point
  of the neighbourhood h-index operator; one update only changes the
  two endpoint rows, so if both endpoints' recomputed h-indices are
  unchanged, h is still exact and the update costs O(deg).
* **subcore region** — an update of edge (u, v) with
  ``r = min(h[u], h[v])`` can only change core numbers of vertices with
  ``h == r`` reachable from the endpoints through vertices with
  ``h == r`` (an insertion raises them by at most 1, a deletion lowers
  by at most 1).  The affected region is that closure plus the
  endpoints; one peel of the region at the update's target level (the
  subcore-then-evict traversal of Sarıyüce et al.'s streaming k-core
  maintenance) gives the exact new core numbers.  Both run over Python
  ints, reading ``h`` and the base CSR through memoryviews: regions are
  tens to hundreds of vertices, where NumPy call overhead would
  dominate.

A refresh falls back to the historical full rebuild when the batch or
any region exceeds ``region_fraction * n`` — the fallback keeps
worst-case cost at the rebuild-per-batch baseline.  Adjacency is kept
as an *overlay* (per-vertex added / deleted neighbour sets) over the
last materialized CSR, compacted amortizedly, so small batches never
pay an O(m) CSR rebuild.  The edge set itself is held once, as the
base CSR's sorted int64 keys ``u * n + v`` (u < v) plus an edge counter;
every fold of the overlay (and, for a rebuild, of the pending ops) into
a new base merges the changed keys into that array and hands its rows
to :meth:`UndirectedGraph.from_edges`.

Lint rule R015 keeps these internals (``_edge_keys``/``_edge_count``/
``_h``/overlay) private to ``repro/core/`` and ``repro/stream/``.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyGraphError, GraphError, StreamMutationError
from ..graph.undirected import UndirectedGraph
from ..kernels.density import induced_density
from ..kernels.frontier import frontier_synchronous_sweep
from ..kernels.segments import concat_ranges
from .results import UDSResult

__all__ = ["DynamicKStarCore"]


class DynamicKStarCore:
    """Maintains core numbers (and the k*-core) of an evolving graph.

    ``incremental=False`` forces the historical rebuild-per-refresh
    behaviour (the bench baseline); by default a refresh replays the
    pending updates through the localized path and only falls back to a
    rebuild when an affected region exceeds ``region_fraction`` of the
    vertex set.  ``overlay_fraction`` bounds the adjacency overlay
    relative to the base CSR before it is compacted.

    ``total_sweeps`` counts one per region peel of the incremental path
    plus one per clamped sweep of a rebuild; stream answers report it as
    ``UDSResult.iterations``.
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        incremental: bool = True,
        region_fraction: float = 0.25,
        overlay_fraction: float = 0.5,
    ):
        if num_vertices < 1:
            raise GraphError("num_vertices must be positive")
        if not 0.0 < region_fraction <= 1.0:
            raise GraphError("region_fraction must be in (0, 1]")
        if not 0.0 < overlay_fraction:
            raise GraphError("overlay_fraction must be positive")
        self._num_vertices = num_vertices
        self._incremental = incremental
        self._region_fraction = region_fraction
        self._overlay_fraction = overlay_fraction
        # Adjacency at the last *converged* state = base CSR patched by a
        # symmetric overlay of added / deleted neighbour sets (each edge
        # recorded under both endpoints); ``_overlay_edges`` counts
        # canonical overlay edges.  Pending mutations are applied to the
        # overlay during refresh replay, not at mutation time.  The base
        # CSR's edges are also kept as sorted keys ``u * n + v`` (u < v),
        # the array each fold merges into; ``_edge_count`` is the
        # current edge count, pending mutations included.
        self._base_graph = UndirectedGraph.empty(num_vertices)
        self._edge_keys = np.empty(0, dtype=np.int64)
        self._edge_count = 0
        self._ov_add: dict[int, set[int]] = {}
        self._ov_del: dict[int, set[int]] = {}
        self._overlay_edges = 0
        # Net mutations since the last converged fixed point: +1 for an
        # inserted edge, -1 for a deleted one; a revert cancels the entry,
        # so insert-then-delete of the same edge leaves nothing dirty.
        self._pending: dict[tuple[int, int], int] = {}
        self._h = np.zeros(num_vertices, dtype=np.int64)
        self._dirty = False
        self.total_sweeps = 0
        self.updates_applied = 0
        self.rebuilds = 0
        self.incremental_refreshes = 0
        self.affected_last = 0
        self.affected_total = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _canonical(self, u: int, v: int) -> tuple[int, int]:
        u, v = int(u), int(v)
        n = self._num_vertices
        if not (0 <= u < n and 0 <= v < n):
            raise StreamMutationError(
                f"edge ({u}, {v}): endpoint out of range for a graph "
                f"with {n} vertices"
            )
        if u == v:
            raise StreamMutationError(
                f"edge ({u}, {v}): self-loops are not allowed"
            )
        return (u, v) if u < v else (v, u)

    def _present(self, key: tuple[int, int]) -> bool:
        """Is edge ``key`` in the current graph?

        A pending op decides first, then the overlay, then the base keys.
        """
        op = self._pending.get(key)
        if op is not None:
            return op > 0
        u, v = key
        if v in self._ov_add.get(u, ()):
            return True
        if v in self._ov_del.get(u, ()):
            return False
        flat = u * self._num_vertices + v
        pos = int(np.searchsorted(self._edge_keys, flat))
        return pos < self._edge_keys.size and int(self._edge_keys[pos]) == flat

    def _apply(self, key: tuple[int, int], op: int) -> bool:
        if self._present(key) == (op > 0):
            return False
        if self._pending.pop(key, None) is None:
            self._pending[key] = op
        self._dirty = bool(self._pending)
        self._edge_count += op
        self.updates_applied += 1
        return True

    def insert_edge(self, u: int, v: int) -> bool:
        """Add edge {u, v}; return False if it was already present."""
        return self._apply(self._canonical(u, v), +1)

    def delete_edge(self, u: int, v: int) -> bool:
        """Remove edge {u, v}; return False if it was absent."""
        return self._apply(self._canonical(u, v), -1)

    def insert_edges(self, edges) -> int:
        """Bulk insert; return how many edges were new.

        The whole batch is validated before any edge is applied, so a
        malformed row (:class:`~repro.errors.StreamMutationError`) leaves
        the edge set untouched.  An empty batch is a no-op and does not
        dirty the structure (nor change the graph fingerprint).
        """
        if (not self._edge_count and not self._pending
                and isinstance(edges, np.ndarray)
                and edges.shape[1:] == (2,) and edges.dtype.kind in "iu"):
            return self._insert_into_empty(edges)
        keys = [self._canonical(u, v) for u, v in edges]
        return sum(1 for key in keys if self._apply(key, +1))

    def _insert_into_empty(self, rows: np.ndarray) -> int:
        """:meth:`insert_edges` of an integer ``(m, 2)`` array, one pass.

        With no edge present and nothing pending, the per-edge path
        records every distinct canonical row as a pending insertion, in
        first-occurrence order, and nothing else; this records the same
        without a membership test per row.  Validation is vectorized,
        and the first malformed row raises the per-edge message.
        """
        lo = np.minimum(rows[:, 0], rows[:, 1])
        hi = np.maximum(rows[:, 0], rows[:, 1])
        bad = (lo < 0) | (hi >= self._num_vertices) | (lo == hi)
        if bad.any():
            self._canonical(*rows[int(np.argmax(bad))])  # raises
        self._pending = dict.fromkeys(zip(lo.tolist(), hi.tolist()), +1)
        added = len(self._pending)
        self._dirty = bool(added)
        self._edge_count = added
        self.updates_applied += added
        return added

    # ------------------------------------------------------------------
    # Overlay adjacency (state: last converged graph + replayed updates)
    # ------------------------------------------------------------------
    def _overlay_apply(self, key: tuple[int, int], op: int) -> None:
        """Replay one pending mutation into the symmetric overlay."""
        u, v = key
        if op > 0:
            if v in self._ov_del.get(u, ()):  # re-adding a base edge
                self._ov_del[u].discard(v)
                self._ov_del[v].discard(u)
                self._overlay_edges -= 1
            else:
                self._ov_add.setdefault(u, set()).add(v)
                self._ov_add.setdefault(v, set()).add(u)
                self._overlay_edges += 1
        else:
            if v in self._ov_add.get(u, ()):  # deleting a never-built edge
                self._ov_add[u].discard(v)
                self._ov_add[v].discard(u)
                self._overlay_edges -= 1
            else:
                self._ov_del.setdefault(u, set()).add(v)
                self._ov_del.setdefault(v, set()).add(u)
                self._overlay_edges += 1

    def _overlay_keys(self) -> set[int]:
        """The overlay's edges as keys ``u * n + v`` (u < v).

        Additions and deletions alike: each one flips its edge against
        the base.
        """
        n = self._num_vertices
        return {
            u * n + w
            for side in (self._ov_add, self._ov_del)
            for u, nbrs in side.items()
            for w in nbrs
            if u < w
        }

    def _fold(self, flips: set[int]) -> None:
        """Flip each key of ``flips`` in the base keys; rebuild the CSR.

        A flip of a base key deletes that edge and any other flip adds
        one: ``searchsorted`` locates both, ``np.delete``/``np.insert``
        merge them, and the keys' rows go through
        :meth:`UndirectedGraph.from_edges`.  The overlay is cleared; with
        nothing to flip the base CSR stays as it is.
        """
        self._ov_add.clear()
        self._ov_del.clear()
        self._overlay_edges = 0
        if not flips:
            return
        keys = self._edge_keys
        flip = np.sort(np.fromiter(flips, np.int64, len(flips)))
        pos = np.searchsorted(keys, flip)
        present = pos < keys.size
        present[present] = keys[pos[present]] == flip[present]
        keys = np.delete(keys, pos[present])
        added = flip[~present]
        keys = np.insert(keys, np.searchsorted(keys, added), added)
        n = self._num_vertices
        rows = np.empty((keys.size, 2), dtype=np.int64)
        np.floor_divide(keys, n, out=rows[:, 0])
        np.subtract(keys, rows[:, 0] * n, out=rows[:, 1])
        self._edge_keys = keys
        self._base_graph = UndirectedGraph.from_edges(n, rows)

    def _materialize(self) -> UndirectedGraph:
        """Fold the overlay and any still-pending ops into the base CSR.

        An overlay entry and a pending op on the same edge cancel (the
        op reverts what the overlay changed), so the flips are the
        symmetric difference of the two key sets.
        """
        n = self._num_vertices
        flips = self._overlay_keys()
        flips.symmetric_difference_update(u * n + v for u, v in self._pending)
        self._pending.clear()
        self._fold(flips)
        return self._base_graph

    # ------------------------------------------------------------------
    # Re-convergence
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        if not self._dirty:
            return
        if self._incremental:
            self._refresh_incremental()
        else:
            self._refresh_rebuild()
        self._dirty = False

    def _refresh_rebuild(self, extra_insertions: list | None = None) -> None:
        """Full rebuild + warm-started global re-convergence (fallback).

        Folds whatever is still pending into the base CSR together with
        the overlay, so it is also the mid-batch fallback target of the
        incremental path; ``extra_insertions`` carries an
        already-replayed in-flight insertion whose warm-start bump must
        still be accounted for.
        """
        insertions = [key for key, op in self._pending.items() if op > 0]
        insertions.extend(extra_insertions or ())
        graph = self._materialize()
        degrees = graph.degrees()
        # Warm start: old h plus the insertion budget, but only for the
        # vertices an insertion can actually lift (core >= the smallest
        # endpoint core among the inserted edges); clipped by the new
        # degrees, which are always upper bounds themselves.
        bump = np.zeros(self._num_vertices, dtype=np.int64)
        if insertions:
            ends = np.array(insertions, dtype=np.int64)
            floor = int(self._h[ends].min())
            bump[self._h >= floor] = len(insertions)
        warm = np.minimum(self._h + bump, degrees)
        h = np.maximum(warm, 0)
        frontier = None
        while True:
            # Clamped: the warm state is an upper bound but not the
            # degrees, and the decrease-only frontier tracking needs the
            # iteration monotone (docs/streaming.md).  The loop ends on
            # an empty woken set, so total_sweeps counts what full
            # sweeps would.
            h, woken, frontier = frontier_synchronous_sweep(
                graph, h, frontier=frontier, clamp=True
            )
            self.total_sweeps += 1
            if woken.size == 0:
                break
        self._h = h
        self.rebuilds += 1
        self.affected_last = self._num_vertices
        self.affected_total += self._num_vertices

    def _refresh_incremental(self) -> None:
        """Replay the pending batch update-at-a-time, locally.

        Each update sees the exact fixed point left by the previous one,
        so the single-update localization theorems apply directly — no
        batch slack needed.  Falls back to :meth:`_refresh_rebuild` (for
        the *remaining* updates) as soon as a region overflows the
        configured fraction of n, keeping the worst case at the
        rebuild-per-batch baseline.
        """
        max_region = max(1, int(self._region_fraction * self._num_vertices))
        if len(self._pending) > max_region:
            # A batch touching more endpoints than the whole region
            # budget: localization cannot pay for itself, rebuild once.
            self._refresh_rebuild()
            return
        if self._overlay_edges + len(self._pending) > max(
            256, int(self._overlay_fraction * self._base_graph.num_edges)
        ):
            # Amortized compaction: fold the *converged* adjacency before
            # overlay patching starts to dominate per-vertex reads.
            self._compact_overlay()
        affected = 0
        for key, op in list(self._pending.items()):
            del self._pending[key]
            self._overlay_apply(key, op)
            size = self._maintain_one(key, op, max_region)
            if size is None:
                self._refresh_rebuild(
                    extra_insertions=[key] if op > 0 else None
                )
                return
            affected += size
        self.incremental_refreshes += 1
        self.affected_last = affected
        self.affected_total += affected

    def _compact_overlay(self) -> None:
        """Rebuild the base CSR at the *converged* state (pending unreplayed).

        The converged graph is the base patched by the overlay, so this
        is the fold of the overlay alone; the pending ops stay queued
        for the replay that follows.
        """
        self._fold(self._overlay_keys())

    def _maintain_one(
        self, key: tuple[int, int], op: int, max_region: int
    ) -> int | None:
        """Re-converge h after one replayed update; return the region size.

        0 when an O(deg) test certifies that no core number changes;
        None when the region overflows ``max_region`` (the caller falls
        back to a rebuild, h untouched).  Otherwise the region is the
        subcore closure of the seeds and one peel settles it.

        * **Insertion** (``level = r + 1``): only ``h == r`` vertices can
          rise, by one, and a riser needs at least ``r + 1`` neighbours
          whose new core is at least ``r + 1``, hence old core at least
          ``r`` — the O(deg) *potential* test.  The seeds are the
          endpoints with ``h == r`` that pass it; none certifies no
          change.
        * **Deletion** (``level = r``): h stays a pointwise upper bound,
          and only the endpoint rows changed, so if both endpoints'
          recomputed h-indices are unchanged h is still the greatest
          fixed point — exact.  (Not sound for insertions: the stale h
          can be a smaller fixed point than the risen cores.)  Otherwise
          the seeds are the endpoints with ``h == r``.

        The closure walks ``h == r`` vertices over the base CSR plus the
        overlay's additions (a superset of the current adjacency, which
        can only enlarge the region); for insertions each candidate must
        also pass the potential test, which keeps regions small when one
        core value dominates.  The peel then keeps a member at ``level``
        exactly when at least ``level`` of its current neighbours are
        members or have ``h > r`` after evictions, and drops the rest to
        ``level - 1``: since one update moves a core number by at most
        one, that is the new ``level``-core (docs/streaming.md).
        """
        u, v = key
        h = memoryview(self._h)
        base = self._base_graph
        ptr, nbr = memoryview(base.indptr), memoryview(base.indices)
        adds, dels = self._ov_add, self._ov_del
        adjacency: dict[int, list[int]] = {}

        def current(x: int) -> list[int]:
            """x's neighbours now: base row minus deletions plus additions."""
            out = adjacency.get(x)
            if out is None:
                out = nbr[ptr[x]:ptr[x + 1]].tolist()
                gone = dels.get(x)
                if gone:
                    out = [w for w in out if w not in gone]
                out.extend(adds.get(x, ()))
                adjacency[x] = out
            return out

        def can_rise(x: int) -> bool:
            return len([w for w in current(x) if h[w] >= r]) > r

        def unchanged(x: int) -> bool:
            hx = h[x]
            values = [h[w] for w in current(x)]
            return (len([y for y in values if y >= hx]) >= hx
                    and len([y for y in values if y > hx]) <= hx)

        r = min(h[u], h[v])
        if op > 0:
            level = r + 1
            seeds = [x for x in key if h[x] == r and can_rise(x)]
            if not seeds:
                return 0
        else:
            level = r
            if unchanged(u) and unchanged(v):
                return 0
            seeds = [x for x in key if h[x] == r]
        members = set(seeds)
        if len(members) > max_region:
            return None
        rejected: set[int] = set()
        stack = list(seeds)
        while stack:
            x = stack.pop()
            walk = current(x)
            if dels.get(x):
                walk = nbr[ptr[x]:ptr[x + 1]].tolist()
                walk.extend(adds.get(x, ()))
            for w in walk:
                if h[w] != r or w in members or w in rejected:
                    continue
                if op > 0 and not can_rise(w):
                    rejected.add(w)
                    continue
                members.add(w)
                if len(members) > max_region:
                    return None
                stack.append(w)
        support = {
            x: len([w for w in current(x) if w in members or h[w] > r])
            for x in members
        }
        evicted = {x for x, count in support.items() if count < level}
        stack = list(evicted)
        while stack:
            for w in current(stack.pop()):
                if w in members and w not in evicted:
                    support[w] -= 1
                    if support[w] < level:
                        evicted.add(w)
                        stack.append(w)
        for x in members:
            h[x] = level - 1 if x in evicted else level
        self.total_sweeps += 1
        return len(members)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return self._edge_count

    @property
    def num_vertices(self) -> int:
        """Number of vertices (fixed at construction)."""
        return self._num_vertices

    def graph(self) -> UndirectedGraph:
        """The current graph (overlay folded into a CSR lazily)."""
        self._refresh()
        return self._materialize()

    def core_numbers(self) -> np.ndarray:
        """Current core numbers (a copy)."""
        self._refresh()
        return self._h.copy()

    def k_star(self) -> int:
        """Current maximum core number."""
        self._refresh()
        return int(self._h.max(initial=0))

    def _induced_edges_now(self, vertices: np.ndarray) -> int:
        """Edge count inside ``vertices`` under base CSR plus overlay."""
        member = np.zeros(self._num_vertices, dtype=bool)
        member[vertices] = True
        indptr = self._base_graph.indptr
        degrees = self._base_graph.degrees()
        slots = concat_ranges(indptr[vertices], degrees[vertices])
        twice = int(member[self._base_graph.indices[slots]].sum())
        count = twice // 2
        for u, adds in self._ov_add.items():
            if member[u]:
                count += sum(1 for w in adds if u < w and member[w])
        for u, dels in self._ov_del.items():
            if member[u]:
                count -= sum(1 for w in dels if u < w and member[w])
        return count

    def densest_subgraph(self) -> UDSResult:
        """Current k*-core as a 2-approximate densest subgraph.

        Warm-started end to end: the refresh is localized when possible
        and the density of the answer set is counted against the overlay
        without materializing a CSR — bit-identical to
        :func:`~repro.kernels.density.induced_density` on the rebuilt
        graph (same integer count, same division).
        """
        self._refresh()
        if self.num_edges == 0:
            raise EmptyGraphError("UDS is undefined on a graph without edges")
        k_star = int(self._h.max())
        vertices = np.flatnonzero(self._h == k_star)
        if self._overlay_edges:
            density = self._induced_edges_now(vertices) / vertices.size
        else:
            density = induced_density(self._base_graph, vertices)
        return UDSResult(
            algorithm="DynamicK*Core",
            vertices=vertices,
            density=density,
            k_star=k_star,
            iterations=self.total_sweeps,
        )

    def stats(self) -> dict[str, int]:
        """Maintenance counters for reports and the streaming bench."""
        return {
            "updates_applied": self.updates_applied,
            "rebuilds": self.rebuilds,
            "incremental_refreshes": self.incremental_refreshes,
            "affected_last": self.affected_last,
            "affected_total": self.affected_total,
            "total_sweeps": self.total_sweeps,
        }
