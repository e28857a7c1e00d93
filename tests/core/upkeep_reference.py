"""Reference per-update upkeep, kept for lockstep equivalence tests.

``ReferenceUpkeep`` is :class:`~repro.core.dynamic.DynamicKStarCore` with
the NumPy machinery its ``_maintain_one`` ran on before the subcore walk
and the converge step moved onto Python ints: the level-synchronous
``_subcore_closure`` with ``_potential_many``, the <= 64-vertex
``_converge_scalar`` worklist, and the larger regions' clamped Jacobi
sweeps over a region-local CSR.  Region selection, overflow decisions
and the resulting core numbers of the library version must match it
update for update; ``total_sweeps`` counts differ by design (one per
region peel there, one per worklist run or Jacobi pass here).
"""

from __future__ import annotations

import numpy as np

from repro.core.dynamic import DynamicKStarCore
from repro.graph import UndirectedGraph
from repro.kernels.frontier import frontier_synchronous_sweep
from repro.kernels.segments import concat_ranges
from repro.store.csr import sorted_unique

# Regions at or below this size re-converge through a scalar worklist
# instead of the vectorised local-subgraph sweep.
SCALAR_REGION = 64


class ReferenceUpkeep(DynamicKStarCore):
    """The maintainer with the previous closure and converge code."""

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

    def _endpoint_unchanged(self, x: int) -> bool:
        """Exact O(deg) test: is ``h[x]`` still x's recomputed h-index?"""
        hx = int(self._h[x])
        nbrs = self._current_neighbors(x)
        values = self._h[nbrs]
        if int((values >= hx).sum()) < hx:
            return False
        if hx < nbrs.size and int((values >= hx + 1).sum()) >= hx + 1:
            return False
        return True

    def _insert_potential(self, x: int, r: int) -> bool:
        """Can ``x`` (with ``h == r``) possibly rise after an insertion?"""
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

        Level-synchronised over the base CSR plus the overlay's additions
        (not its deletions); returns None once the region exceeds
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
        if count > max_region:
            return None
        return np.flatnonzero(visited)

    def _converge_scalar(self, region: np.ndarray, r: int, op: int) -> int:
        """Clamped Gauss–Seidel over a small region, scalar worklist style."""
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
                continue
            counts = np.bincount(np.minimum(values, hx), minlength=hx + 1)
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
        """Re-converge h after one replayed update; return region size."""
        u, v = key
        h = self._h
        r = int(min(h[u], h[v]))
        if op > 0:
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
        if region.size <= SCALAR_REGION:
            return self._converge_scalar(region, r, op)
        k = int(region.size)
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
            h_local[:k] = h_local[:k] + (h_local[:k] == r)
        h_local[:k] = np.minimum(h_local[:k], local_graph.degrees()[:k])
        active = frontier = np.arange(k, dtype=np.int64)
        while active.size:
            h_local, woken, frontier = frontier_synchronous_sweep(
                local_graph, h_local, frontier=frontier, clamp=True
            )
            self.total_sweeps += 1
            active = woken[woken < k]
            frontier = frontier[frontier < k]
        self._h[region] = h_local[:k]
        return k
