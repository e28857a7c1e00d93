"""Frontier sweeps reproduce full sweeps array-for-array, sweep-for-sweep."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hindex import (
    degree_descending_order,
    h_index,
    inplace_sweep,
    synchronous_sweep,
)
from repro.distributed.pkmc_bsp import _sweep_shards
from repro.graph import UndirectedGraph, chung_lu_undirected
from repro.kernels import (
    frontier_inplace_sweep,
    frontier_synchronous_sweep,
    gauss_seidel_batches,
)
from repro.runtime.simruntime import SimRuntime
from repro.store.shard import load_sharded, save_sharded


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
        frontier = None
        for _ in range(graph.num_vertices + 2):
            h_full = synchronous_sweep(graph, h_full, runtime=runtime)
            h_front, woken, frontier = frontier_synchronous_sweep(
                graph, h_front, frontier=frontier, runtime=runtime
            )
            assert np.array_equal(h_full, h_front)
            if woken.size == 0:
                break
        # An empty woken set certifies the fixed point.
        assert np.array_equal(synchronous_sweep(graph, h_front), h_front)

    def test_empty_frontier_is_identity(self, graph):
        h = graph.degrees().astype(np.int64)
        new_h, woken, nxt = frontier_synchronous_sweep(
            graph, h, frontier=np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(new_h, h)
        assert woken.size == 0
        assert nxt.size == 0

    def test_sanitizer_reports_no_race(self, graph):
        rt = SimRuntime(num_threads=4, sanitize=True)
        h = graph.degrees().astype(np.int64)
        h, woken, frontier = frontier_synchronous_sweep(graph, h, runtime=rt)
        while woken.size:
            h, woken, frontier = frontier_synchronous_sweep(
                graph, h, frontier=frontier, runtime=rt
            )
        # Reaching here without ParforRaceError is the assertion; the
        # fixed point must still be correct.
        assert np.array_equal(synchronous_sweep(graph, h), h)


def converge_sync(graph, h, clamp):
    frontier = None
    for _ in range(graph.num_vertices + 2):
        h, woken, frontier = frontier_synchronous_sweep(
            graph, h, frontier=frontier, clamp=clamp
        )
        if woken.size == 0:
            return h
    raise AssertionError("sweep did not converge")


def cores(graph):
    return converge_sync(graph, graph.degrees().astype(np.int64), False)


def warm_bound(graph, seed=0):
    """Core numbers plus noise on some vertices, capped by the degrees.

    An upper bound of the core numbers that is not the degree vector:
    the streaming rebuild's starting state.
    """
    rng = np.random.default_rng(seed)
    warm = cores(graph) + rng.integers(0, 3, size=graph.num_vertices)
    return np.minimum(warm, graph.degrees().astype(np.int64))


def check_woken_frontier_rule(graph, mode, seed=0):
    """Run the frontier loop beside full Jacobi; check the rule per sweep.

    ``mode`` is ``plain`` (from the degrees), ``sanitize`` (the same under
    the race sanitizer) or ``clamped`` (clamped sweeps from a warm bound).
    Per sweep: the frontier is a subset of the woken set; every vertex
    left out of the frontier, woken or not, keeps its value under a full
    sweep; the arrays equal full Jacobi's.  The loop that stops on an
    empty woken set runs as many sweeps as full Jacobi run to a sweep
    that changes nothing.
    """
    clamp = mode == "clamped"
    rt = SimRuntime(num_threads=4, sanitize=True) if mode == "sanitize" else None

    def full(h):
        swept = synchronous_sweep(graph, h, runtime=rt)
        return np.minimum(swept, h) if clamp else swept

    start = warm_bound(graph, seed) if clamp else graph.degrees().astype(np.int64)
    h_full, full_sweeps = start.copy(), 0
    while True:
        swept = full(h_full)
        full_sweeps += 1
        if np.array_equal(swept, h_full):
            break
        h_full = swept

    h_ref, h, frontier, sweeps = start.copy(), start.copy(), None, 0
    while True:
        h, woken, frontier = frontier_synchronous_sweep(
            graph, h, frontier=frontier, runtime=rt, clamp=clamp
        )
        sweeps += 1
        h_ref = full(h_ref)
        assert np.array_equal(h, h_ref)
        assert np.all(np.isin(frontier, woken))
        left_out = np.ones(graph.num_vertices, dtype=bool)
        left_out[frontier] = False
        assert np.array_equal(full(h)[left_out], h[left_out])
        if woken.size == 0:
            break
    assert sweeps == full_sweeps
    assert np.array_equal(h, h_full)


MODES = ["plain", "sanitize", "clamped"]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=4 * n))
    return UndirectedGraph.from_edges(n, edges)


class TestWokenFrontierRule:
    """Only woken vertices a changed neighbour fell below are recomputed."""

    @pytest.mark.parametrize("mode", MODES)
    def test_rule_is_exact_on_the_corpus(self, graph, mode):
        check_woken_frontier_rule(graph, mode)

    @pytest.mark.parametrize("mode", MODES)
    @given(drawn=small_graphs(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rule_is_exact_on_drawn_graphs(self, mode, drawn, seed):
        check_woken_frontier_rule(drawn, mode, seed)

    def test_frontier_is_a_strict_subset_somewhere(self):
        # The rule must skip something on a skewed graph, or it saves nothing.
        graph = GRAPHS["chung_lu"]()
        h, frontier = graph.degrees().astype(np.int64), None
        skipped = 0
        while True:
            h, woken, frontier = frontier_synchronous_sweep(
                graph, h, frontier=frontier
            )
            skipped += woken.size - frontier.size
            if woken.size == 0:
                break
        assert skipped > 0

    @pytest.mark.parametrize("shards", [1, 3, 7])
    def test_sharded_superstep_sets_match_monolithic(self, tmp_path, shards):
        graph = GRAPHS["chung_lu"]()
        save_sharded(graph, tmp_path, shards=shards)
        sharded = load_sharded(tmp_path)
        degrees = graph.degrees().astype(np.float64)
        cross = np.zeros(graph.num_vertices, dtype=np.int64)
        h = graph.degrees().astype(np.int64)
        woken = frontier = None
        while True:
            new_h, mono_woken, mono_frontier = frontier_synchronous_sweep(
                graph, h, frontier=frontier
            )
            shard_h, woken, frontier, _, _ = _sweep_shards(
                sharded, h, woken, frontier, degrees, cross, None
            )
            assert np.array_equal(shard_h, new_h)
            assert np.array_equal(woken, mono_woken)
            assert np.array_equal(frontier, mono_frontier)
            h = new_h
            if woken.size == 0:
                break


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

    def test_cold_start_is_unaffected(self, graph):
        # From the degrees the raw operator is already monotone
        # decreasing, so clamping changes nothing — sweep for sweep.
        h_plain = graph.degrees().astype(np.int64)
        h_clamp = h_plain.copy()
        frontier_plain = frontier_clamp = None
        for _ in range(graph.num_vertices + 2):
            h_plain, woken_plain, frontier_plain = frontier_synchronous_sweep(
                graph, h_plain, frontier=frontier_plain
            )
            h_clamp, woken_clamp, frontier_clamp = frontier_synchronous_sweep(
                graph, h_clamp, frontier=frontier_clamp, clamp=True
            )
            assert np.array_equal(h_plain, h_clamp)
            assert np.array_equal(woken_plain, woken_clamp)
            assert np.array_equal(frontier_plain, frontier_clamp)
            if woken_plain.size == 0:
                break

    def test_warm_non_degree_bound_converges_to_the_cores(self, graph):
        # A warm bound that is NOT the degree vector (cores + noise on a
        # few vertices): clamped iteration still lands exactly on the
        # fixed point.  This is the streaming rebuild's starting state.
        warm = warm_bound(graph)
        assert np.array_equal(
            converge_sync(graph, warm.copy(), True), cores(graph)
        )

    def test_clamp_never_exceeds_the_start(self, graph):
        start = graph.degrees().astype(np.int64) + 5  # a loose upper bound
        h, woken, frontier = frontier_synchronous_sweep(
            graph, start.copy(), clamp=True
        )
        assert np.all(h <= start)
        while woken.size:
            prev = h.copy()
            h, woken, frontier = frontier_synchronous_sweep(
                graph, h, frontier=frontier, clamp=True
            )
            assert np.all(h <= prev)
        assert np.array_equal(h, cores(graph))
