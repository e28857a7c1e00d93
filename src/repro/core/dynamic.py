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
  by at most 1).  The affected region is that BFS closure plus the
  endpoints; a *min-clamped* Gauss–Seidel sweep over just that region
  (boundary values frozen at the old fixed point) terminates at the
  exact new core numbers.

A refresh falls back to the historical full rebuild when the batch or
any region exceeds ``region_fraction * n`` — the fallback keeps
worst-case cost at the rebuild-per-batch baseline.  Adjacency is kept
as an *overlay* (per-vertex added / deleted neighbour sets) over the
last materialized CSR, compacted amortizedly, so small batches never
pay an O(m) CSR rebuild.

Lint rule R015 keeps these internals (``_edge_set``/``_h``/overlay)
private to ``repro/core/`` and ``repro/stream/``.
"""

from __future__ import annotations

import numpy as np

from ..errors import EmptyGraphError, GraphError, StreamMutationError
from ..graph.undirected import UndirectedGraph
from ..kernels.density import induced_density
from ..kernels.frontier import frontier_synchronous_sweep
from ..kernels.segments import concat_ranges
from ..store.csr import sorted_unique
from .results import UDSResult

__all__ = ["DynamicKStarCore"]

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)

# Regions at or below this size re-converge through a scalar worklist
# instead of the vectorised local-subgraph sweep: typical single-update
# regions are a handful of vertices (often just the endpoints), where
# per-call array overhead dominates any vectorisation win.
_SCALAR_REGION = 64


class DynamicKStarCore:
    """Maintains core numbers (and the k*-core) of an evolving graph.

    ``incremental=False`` forces the historical rebuild-per-refresh
    behaviour (the bench baseline); by default a refresh replays the
    pending updates through the localized path and only falls back to a
    rebuild when an affected region exceeds ``region_fraction`` of the
    vertex set.  ``overlay_fraction`` bounds the adjacency overlay
    relative to the base CSR before it is compacted.
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
        self._edge_set: set[tuple[int, int]] = set()
        # Adjacency at the last *converged* state = base CSR patched by a
        # symmetric overlay of added / deleted neighbour sets (each edge
        # recorded under both endpoints); ``_overlay_edges`` counts
        # canonical overlay edges.  Pending mutations are applied to the
        # overlay during refresh replay, not at mutation time.
        self._base_graph = UndirectedGraph.empty(num_vertices)
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

    def _apply(self, key: tuple[int, int], op: int) -> bool:
        present = key in self._edge_set
        if op > 0:
            if present:
                return False
            self._edge_set.add(key)
        else:
            if not present:
                return False
            self._edge_set.remove(key)
        if self._pending.pop(key, None) is None:
            self._pending[key] = op
        self._dirty = bool(self._pending)
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
        keys = [self._canonical(u, v) for u, v in edges]
        return sum(1 for key in keys if self._apply(key, +1))

    def delete_edges(self, edges) -> int:
        """Bulk delete; return how many edges were actually removed.

        The batching counterpart of :meth:`insert_edges`, with the same
        validate-everything-first contract; deleting an absent edge is a
        counted-out no-op, not an error.
        """
        keys = [self._canonical(u, v) for u, v in edges]
        return sum(1 for key in keys if self._apply(key, -1))

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

    def _materialize(self) -> UndirectedGraph:
        """Fold the (fully replayed) overlay into a fresh CSR."""
        if self._overlay_edges:
            edges = (
                np.array(sorted(self._edge_set), dtype=np.int64).reshape(-1, 2)
                if self._edge_set
                else _EMPTY_EDGES
            )
            self._base_graph = UndirectedGraph.from_edges(
                self._num_vertices, edges
            )
            self._ov_add.clear()
            self._ov_del.clear()
            self._overlay_edges = 0
        return self._base_graph

    def _current_neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v`` in the replayed state (base + overlay)."""
        nbrs = self._base_graph.neighbors(v)
        dels = self._ov_del.get(v)
        if dels:
            nbrs = nbrs[~np.isin(nbrs, np.fromiter(dels, np.int64))]
        adds = self._ov_add.get(v)
        if adds:
            nbrs = np.concatenate(
                [np.asarray(nbrs, dtype=np.int64),
                 np.fromiter(adds, np.int64)]
            )
        return np.asarray(nbrs, dtype=np.int64)

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

        Replays whatever is still pending into the overlay first, so it
        is also the mid-batch fallback target of the incremental path;
        ``extra_insertions`` carries an already-replayed in-flight
        insertion whose warm-start bump must still be accounted for.
        """
        insertions = [key for key, op in self._pending.items() if op > 0]
        insertions.extend(extra_insertions or ())
        for key, op in self._pending.items():
            self._overlay_apply(key, op)
        self._pending.clear()
        graph = self._materialize()
        degrees = graph.degrees()
        # Warm start: old h plus the insertion budget, but only for the
        # vertices an insertion can actually lift (core >= the smallest
        # endpoint core among the inserted edges); clipped by the new
        # degrees, which are always upper bounds themselves.
        bump = np.zeros(self._num_vertices, dtype=np.int64)
        if insertions:
            floor = min(
                int(min(self._h[u], self._h[v])) for u, v in insertions
            )
            bump[self._h >= floor] = len(insertions)
        warm = np.minimum(self._h + bump, degrees)
        h = np.maximum(warm, 0)
        active = None
        while True:
            # Clamped: the warm state is an upper bound but not the
            # degrees, and the decrease-only frontier tracking needs the
            # iteration monotone (docs/streaming.md).
            h, active = frontier_synchronous_sweep(
                graph, h, frontier=active, clamp=True
            )
            self.total_sweeps += 1
            if active.size == 0:
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

        ``_edge_set`` already holds the final edge set, so the converged
        set is recovered by undoing the net pending ops.
        """
        edges = set(self._edge_set)
        for key, op in self._pending.items():
            if op > 0:
                edges.discard(key)
            else:
                edges.add(key)
        arr = (
            np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
            if edges
            else _EMPTY_EDGES
        )
        self._base_graph = UndirectedGraph.from_edges(self._num_vertices, arr)
        self._ov_add.clear()
        self._ov_del.clear()
        self._overlay_edges = 0

    def _endpoint_unchanged(self, x: int) -> bool:
        """Exact O(deg) test: is ``h[x]`` still x's recomputed h-index?

        Used on *deletions* only: there h stays a pointwise upper bound
        on the new cores, and only the two endpoint rows changed, so if
        both endpoints pass, h is still a fixed point of the h-index
        operator — hence at most the new cores — while also being at
        least them: h is still exact, no sweep needed.  (The same test
        is *not* sound for insertions: the stale h can be a smaller
        fixed point than the risen core array.)
        """
        hx = int(self._h[x])
        nbrs = self._current_neighbors(x)
        values = self._h[nbrs]
        if int((values >= hx).sum()) < hx:
            return False  # h-index dropped below hx
        if hx < nbrs.size and int((values >= hx + 1).sum()) >= hx + 1:
            return False  # h-index rose above hx
        return True

    def _insert_potential(self, x: int, r: int) -> bool:
        """Can ``x`` (with ``h == r``) possibly rise after an insertion?

        A riser needs at least ``r + 1`` neighbours whose *new* core is
        at least ``r + 1``; cores rise by at most one, so those
        neighbours all have old core at least ``r``.  Counting
        ``h >= r`` neighbours is therefore a sound O(deg) refutation.
        """
        values = self._h[self._current_neighbors(x)]
        return int((values >= r).sum()) >= r + 1

    def _potential_many(self, cand: np.ndarray, r: int) -> np.ndarray:
        """Vectorised :meth:`_insert_potential` over a candidate batch."""
        h = self._h
        base = self._base_graph
        degs = base.degrees()[cand]
        slots = concat_ranges(base.indptr[cand], degs)
        ok = (h[base.indices[slots]] >= r).astype(np.int64)
        csum = np.concatenate([[0], np.cumsum(ok)])
        ends = np.cumsum(degs)
        counts = csum[ends] - csum[ends - degs]
        if self._ov_add or self._ov_del:
            for i, c in enumerate(cand):
                c = int(c)
                adds = self._ov_add.get(c)
                if adds:
                    counts[i] += sum(1 for w in adds if h[w] >= r)
                dels = self._ov_del.get(c)
                if dels:
                    counts[i] -= sum(1 for w in dels if h[w] >= r)
        return counts >= r + 1

    def _subcore_closure(
        self, seeds: list[int], r: int, max_region: int, potential: bool
    ) -> np.ndarray | None:
        """Vertices with ``h == r`` reachable from ``seeds`` via ``h == r``.

        The classical single-update affected-region bound: changed
        vertices form a connected set of ``h == r`` vertices containing
        an endpoint whose row changed, so only this closure needs to be
        re-converged.  With ``potential=True`` (insertions) the walk is
        further restricted to vertices that pass
        :meth:`_insert_potential` — risers all do, and the restriction
        is what keeps regions small when a graph has one dominant core
        value.  Level-synchronised over the base CSR with the overlay
        patched in; returns None as soon as the region exceeds
        ``max_region``.
        """
        h = self._h
        n = self._num_vertices
        base = self._base_graph
        indptr, indices, degrees = base.indptr, base.indices, base.degrees()
        visited = np.zeros(n, dtype=bool)
        rejected = np.zeros(n, dtype=bool)
        frontier = np.fromiter(seeds, np.int64)
        visited[frontier] = True
        count = int(frontier.size)
        while frontier.size:
            if count > max_region:
                return None
            parts = [indices[concat_ranges(indptr[frontier], degrees[frontier])]]
            for x in frontier:
                adds = self._ov_add.get(int(x))
                if adds:
                    parts.append(np.fromiter(adds, np.int64))
            mask = np.zeros(n, dtype=bool)
            mask[np.concatenate(parts)] = True
            mask &= (h == r) & ~visited & ~rejected
            cand = np.flatnonzero(mask)
            if potential and cand.size:
                keep = self._potential_many(cand, r)
                rejected[cand[~keep]] = True
                cand = cand[keep]
            visited[cand] = True
            frontier = cand
            count += int(cand.size)
        # The walk ignores overlay deletions when expanding (a superset
        # of the true adjacency — sound, it can only enlarge the region).
        if count > max_region:
            return None
        return np.flatnonzero(visited)

    def _converge_scalar(self, region: np.ndarray, r: int, op: int) -> int:
        """Clamped Gauss–Seidel over a small region, scalar worklist style.

        Works directly against the global h array (region neighbours see
        each other's fresh values; everything outside the region is
        frozen boundary), so it needs no local subgraph.  Same clamp
        semantics — every change is a decrease from an upper bound — so
        the same exactness argument applies (docs/streaming.md).

        Per pop, the common no-change case is decided by one vectorised
        count (at least ``h[x]`` neighbour values ``>= h[x]`` means the
        clamped recompute is the identity); the sort-free clipped
        histogram h-index only runs on actual decreases.
        """
        h = self._h
        members = set(int(x) for x in region)
        nbr_cache: dict[int, np.ndarray] = {}

        def nbrs_of(x: int) -> np.ndarray:
            arr = nbr_cache.get(x)
            if arr is None:
                arr = self._current_neighbors(x)
                nbr_cache[x] = arr
            return arr

        if op > 0:
            h[region] += h[region] == r
        for x in region:
            x = int(x)
            degree = nbrs_of(x).size
            if h[x] > degree:
                h[x] = degree
        pending = list(members)
        in_list = set(pending)
        while pending:
            x = pending.pop()
            in_list.discard(x)
            nbrs = nbrs_of(x)
            values = h[nbrs]
            hx = int(h[x])
            if int((values >= hx).sum()) >= hx:
                continue  # min(hx, recomputed h-index) == hx
            counts = np.bincount(
                np.minimum(values, hx), minlength=hx + 1
            )
            suffix = np.cumsum(counts[::-1])[::-1]
            ks = np.arange(hx + 1)
            h[x] = int(ks[suffix >= ks].max())
            for w in nbrs:
                w = int(w)
                if w in members and w not in in_list:
                    pending.append(w)
                    in_list.add(w)
        self.total_sweeps += 1
        return int(region.size)

    def _maintain_one(
        self, key: tuple[int, int], op: int, max_region: int
    ) -> int | None:
        """Re-converge h after one replayed update; return region size.

        0 when the fast no-change test certifies h is still exact; None
        when the region overflows ``max_region`` (caller falls back to a
        rebuild — h is untouched in that case).
        """
        u, v = key
        h = self._h
        r = int(min(h[u], h[v]))
        if op > 0:
            # Cores rise only if triggered through a root endpoint that
            # can itself rise; a root that cannot certifies no change.
            seeds = [
                x for x in dict.fromkeys((u, v))
                if h[x] == r and self._insert_potential(x, r)
            ]
            if not seeds:
                return 0
        else:
            if self._endpoint_unchanged(u) and self._endpoint_unchanged(v):
                return 0
            seeds = [x for x in dict.fromkeys((u, v)) if h[x] == r]
        region = self._subcore_closure(seeds, r, max_region, op > 0)
        if region is None:
            return None
        if region.size <= _SCALAR_REGION:
            return self._converge_scalar(region, r, op)
        k = int(region.size)
        # Local subgraph: every current edge incident to the region,
        # relabelled; boundary neighbours come along as extra vertices
        # whose h stays frozen at the old fixed point.
        n = self._num_vertices
        indptr = self._base_graph.indptr
        indices = self._base_graph.indices
        degrees = self._base_graph.degrees()
        slots = concat_ranges(indptr[region], degrees[region])
        base_tails = np.asarray(indices[slots], dtype=np.int64)
        base_heads = np.repeat(region, degrees[region]).astype(np.int64)
        pair_heads: list[np.ndarray] = []
        pair_tails: list[np.ndarray] = []
        drop_keys: list[int] = []
        for x in region:
            x = int(x)
            dels = self._ov_del.get(x)
            if dels:
                drop_keys.extend(x * n + w for w in dels)
            adds = self._ov_add.get(x)
            if adds:
                added = np.fromiter(adds, np.int64)
                pair_heads.append(np.full(added.size, x, dtype=np.int64))
                pair_tails.append(added)
        if drop_keys:
            keep = ~np.isin(
                base_heads * n + base_tails,
                np.array(drop_keys, dtype=np.int64),
            )
            base_heads, base_tails = base_heads[keep], base_tails[keep]
        pair_heads.append(base_heads)
        pair_tails.append(base_tails)
        heads = np.concatenate(pair_heads)
        tails = np.concatenate(pair_tails)
        local_id = np.full(n, -1, dtype=np.int64)
        local_id[region] = np.arange(k, dtype=np.int64)
        boundary = sorted_unique(tails[local_id[tails] < 0])
        local_id[boundary] = k + np.arange(boundary.size, dtype=np.int64)
        local_n = k + int(boundary.size)
        local_graph = UndirectedGraph.from_edges(
            local_n, np.stack([local_id[heads], local_id[tails]], axis=1)
        )
        h_local = np.concatenate([h[region], h[boundary]])
        if op > 0:
            # Insertion: only subcore members (h == r) can rise, by one.
            h_local[:k] = h_local[:k] + (h_local[:k] == r)
        h_local[:k] = np.minimum(h_local[:k], local_graph.degrees()[:k])
        # Min-clamped Jacobi over the region only: clamping makes every
        # change a decrease (guaranteeing termination and completeness
        # of the decrease-only frontier), and with the region a superset
        # of all core changes the final state is the exact new core
        # array — see docs/streaming.md for the argument.  Jacobi rather
        # than Gauss–Seidel batches: dense local subgraphs degenerate
        # the independent-set batching into per-vertex calls.
        active = np.arange(k, dtype=np.int64)
        while active.size:
            h_local, nxt = frontier_synchronous_sweep(
                local_graph, h_local, frontier=active, clamp=True
            )
            self.total_sweeps += 1
            active = nxt[nxt < k]  # boundary values stay frozen
        self._h[region] = h_local[:k]
        return k

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Current number of edges."""
        return len(self._edge_set)

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
