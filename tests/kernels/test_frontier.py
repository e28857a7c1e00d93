"""Frontier sweeps reproduce full sweeps array-for-array, sweep-for-sweep."""

import numpy as np
import pytest

from repro.core.hindex import (
    degree_descending_order,
    h_index,
    inplace_sweep,
    synchronous_sweep,
)
from repro.graph import UndirectedGraph, chung_lu_undirected
from repro.kernels import (
    frontier_inplace_sweep,
    frontier_synchronous_sweep,
    gauss_seidel_batches,
)
from repro.runtime.simruntime import SimRuntime


def star(n=12):
    return UndirectedGraph.from_edges(n, [(0, i) for i in range(1, n)])


def path(n=15):
    return UndirectedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def clique(n=8):
    return UndirectedGraph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    )


GRAPHS = {
    "chung_lu": lambda: chung_lu_undirected(250, 800, seed=3),
    "star": star,
    "path": path,
    "clique": clique,
}


def sequential_gauss_seidel(graph, h, order):
    """Plain per-vertex reference sweep (the semantics being preserved)."""
    for v in order:
        h[v] = h_index(h[graph.neighbors(v)])
    return h


@pytest.fixture(params=sorted(GRAPHS), ids=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.fixture(params=[False, True], ids=["plain", "sanitize"])
def runtime(request):
    return SimRuntime(num_threads=4, sanitize=True) if request.param else None


class TestSynchronousFrontier:
    def test_per_sweep_equality_with_full_jacobi(self, graph, runtime):
        h_full = graph.degrees().astype(np.int64)
        h_front = h_full.copy()
        active = None
        for _ in range(graph.num_vertices + 2):
            h_full = synchronous_sweep(graph, h_full, runtime=runtime)
            h_front, active = frontier_synchronous_sweep(
                graph, h_front, frontier=active, runtime=runtime
            )
            assert np.array_equal(h_full, h_front)
            if active.size == 0:
                break
        # Drained frontier certifies the fixed point.
        assert np.array_equal(synchronous_sweep(graph, h_front), h_front)

    def test_empty_frontier_is_identity(self, graph):
        h = graph.degrees().astype(np.int64)
        new_h, nxt = frontier_synchronous_sweep(
            graph, h, frontier=np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(new_h, h)
        assert nxt.size == 0

    def test_sanitizer_reports_no_race(self, graph):
        rt = SimRuntime(num_threads=4, sanitize=True)
        h = graph.degrees().astype(np.int64)
        h, active = frontier_synchronous_sweep(graph, h, runtime=rt)
        while active.size:
            h, active = frontier_synchronous_sweep(
                graph, h, frontier=active, runtime=rt
            )
        # Reaching here without ParforRaceError is the assertion; the
        # fixed point must still be correct.
        assert np.array_equal(synchronous_sweep(graph, h), h)


class TestGaussSeidelBatches:
    def test_batches_partition_the_order(self, graph):
        order = degree_descending_order(graph)
        batches = gauss_seidel_batches(graph, order)
        assert np.array_equal(np.concatenate(batches), order)

    def test_batch_members_pairwise_non_adjacent(self, graph):
        for batch in gauss_seidel_batches(graph):
            members = set(batch.tolist())
            for v in batch:
                assert members.isdisjoint(graph.neighbors(int(v)).tolist())


class TestInplaceFrontier:
    @pytest.mark.parametrize("ordered", [False, True], ids=["natural", "degree"])
    def test_per_sweep_equality_with_sequential_reference(self, graph, ordered):
        order = (
            degree_descending_order(graph)
            if ordered
            else np.arange(graph.num_vertices)
        )
        h_ref = graph.degrees().astype(np.int64)
        h_front = h_ref.copy()
        batches = gauss_seidel_batches(graph, order)
        dirty = None
        for _ in range(graph.num_vertices + 2):
            previous = h_ref.copy()
            sequential_gauss_seidel(graph, h_ref, order)
            h_front, dirty, processed = frontier_inplace_sweep(
                graph, h_front, dirty=dirty, batches=batches
            )
            assert np.array_equal(h_ref, h_front)
            if np.array_equal(previous, h_ref):
                break
        assert not dirty.any()

    def test_batched_inplace_sweep_matches_sequential(self, graph):
        # Satellite (b): the vectorised inplace_sweep is still Gauss-Seidel.
        order = degree_descending_order(graph)
        h_ref = sequential_gauss_seidel(
            graph, graph.degrees().astype(np.int64), order
        )
        h_vec = inplace_sweep(graph, graph.degrees().astype(np.int64), order=order)
        assert np.array_equal(h_ref, h_vec)

    def test_sanitized_and_plain_agree(self, graph):
        order = degree_descending_order(graph)
        rt = SimRuntime(num_threads=4, sanitize=True)
        h_plain = graph.degrees().astype(np.int64)
        h_san = h_plain.copy()
        dirty_p = dirty_s = None
        batches = gauss_seidel_batches(graph, order)
        for _ in range(graph.num_vertices + 2):
            h_plain, dirty_p, processed_p = frontier_inplace_sweep(
                graph, h_plain, dirty=dirty_p, batches=batches
            )
            h_san, dirty_s, processed_s = frontier_inplace_sweep(
                graph, h_san, dirty=dirty_s, batches=batches, runtime=rt
            )
            assert np.array_equal(h_plain, h_san)
            assert np.array_equal(np.sort(processed_p), np.sort(processed_s))
            if processed_p.size == 0:
                break

    def test_processed_shrinks_to_empty(self, graph):
        h = graph.degrees().astype(np.int64)
        dirty = None
        batches = gauss_seidel_batches(graph)
        sizes = []
        for _ in range(graph.num_vertices + 2):
            h, dirty, processed = frontier_inplace_sweep(
                graph, h, dirty=dirty, batches=batches
            )
            sizes.append(processed.size)
            if processed.size == 0:
                break
        assert sizes[-1] == 0
        assert sizes[0] == graph.num_vertices

class TestClampedSweeps:
    """clamp=True: monotone-decreasing iteration from any upper bound."""

    def converge_sync(self, graph, h, clamp):
        active = None
        for _ in range(graph.num_vertices + 2):
            h, active = frontier_synchronous_sweep(
                graph, h, frontier=active, clamp=clamp
            )
            if active.size == 0:
                return h
        raise AssertionError("sweep did not converge")

    def cores(self, graph):
        return self.converge_sync(graph, graph.degrees().astype(np.int64), False)

    def test_cold_start_is_unaffected(self, graph):
        # From the degrees the raw operator is already monotone
        # decreasing, so clamping changes nothing — sweep for sweep.
        h_plain = graph.degrees().astype(np.int64)
        h_clamp = h_plain.copy()
        active_plain = active_clamp = None
        for _ in range(graph.num_vertices + 2):
            h_plain, active_plain = frontier_synchronous_sweep(
                graph, h_plain, frontier=active_plain
            )
            h_clamp, active_clamp = frontier_synchronous_sweep(
                graph, h_clamp, frontier=active_clamp, clamp=True
            )
            assert np.array_equal(h_plain, h_clamp)
            assert np.array_equal(np.sort(active_plain), np.sort(active_clamp))
            if active_plain.size == 0:
                break

    def test_warm_non_degree_bound_converges_to_the_cores(self, graph):
        # A warm bound that is NOT the degree vector (cores + noise on a
        # few vertices): clamped iteration still lands exactly on the
        # fixed point.  This is the streaming rebuild's starting state.
        cores = self.cores(graph)
        rng = np.random.default_rng(0)
        warm = cores + rng.integers(0, 3, size=cores.size)
        np.minimum(warm, graph.degrees().astype(np.int64), out=warm)
        assert np.array_equal(self.converge_sync(graph, warm.copy(), True), cores)

    def test_clamp_never_exceeds_the_start(self, graph):
        start = graph.degrees().astype(np.int64) + 5  # a loose upper bound
        h, active = frontier_synchronous_sweep(graph, start.copy(), clamp=True)
        assert np.all(h <= start)
        while active.size:
            prev = h.copy()
            h, active = frontier_synchronous_sweep(
                graph, h, frontier=active, clamp=True
            )
            assert np.all(h <= prev)
        assert np.array_equal(h, self.cores(graph))
