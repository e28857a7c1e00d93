"""Multiproc backend internals: task state, pool lifecycle, thread rules, splits.

The backend runs range tasks on a thread pool over the caller's own
arrays, so the load-bearing regressions are what a task sees (the
caller's frozen CSR, scratch the caller built, cached range layouts),
the frozen-CSR contract (a dispatched sweep writes nothing into the
graph), exception propagation out of a task, and two caller threads
sharing one backend.
"""

import sys
import threading

import numpy as np
import pytest

from repro.backends import multiproc as multiproc_module
from repro.backends.multiproc import MultiprocBackend
from repro.backends.numpy_backend import (
    induced_edge_count_numpy,
    sweep_values_numpy,
)
from repro.graph import chung_lu_undirected
from repro.store.csr import balanced_bounds


@pytest.fixture()
def backend():
    instance = MultiprocBackend(workers=2, inline_slot_cutoff=0)
    yield instance
    instance.close()


@pytest.fixture(scope="module")
def graph():
    return chung_lu_undirected(1_200, 6_000, seed=21)


def _spy_on_task(monkeypatch, name, seen):
    """Wrap the range task ``name`` to record what each call of it sees."""
    task = getattr(multiproc_module, name)

    def spy(graph, *args):
        seen.append({
            "thread": threading.current_thread().name,
            "indptr": graph.indptr,
            "indices": graph.indices,
            "scratch": {k: a.flags.writeable for k, a in graph._scratch.items()},
            "args": args,
        })
        return task(graph, *args)

    monkeypatch.setattr(multiproc_module, name, spy)


class TestWorkerState:
    def test_csr_views_are_shared_memory_and_frozen(self, backend, monkeypatch):
        # A task reads the caller's CSR buffers themselves, never a copy,
        # and a frozen graph stays frozen inside the pool threads.
        graph = chung_lu_undirected(1_200, 6_000, seed=21)
        graph.indptr.setflags(write=False)
        graph.indices.setflags(write=False)
        seen: list = []
        _spy_on_task(monkeypatch, "_full_sweep_range", seen)
        h = graph.degrees().astype(np.int64)
        assert np.array_equal(
            backend.sweep_values(graph, h), sweep_values_numpy(graph, h)
        )
        assert len(seen) == 2
        for view in seen:
            assert view["thread"].startswith("repro-backend")
            assert view["indptr"] is graph.indptr
            assert view["indices"] is graph.indices
            assert view["indptr"].flags.writeable is False
            assert view["indices"].flags.writeable is False

    def test_scratch_rebuilt_locally_and_read_only(self, backend, monkeypatch):
        # The calling thread builds every scratch buffer a task reads
        # before dispatch: each task finds it already built and frozen,
        # and no task adds a buffer of its own.
        graph = chung_lu_undirected(1_200, 6_000, seed=21)
        assert graph._scratch == {}
        seen: list = []
        _spy_on_task(monkeypatch, "_subset_sweep_range", seen)
        _spy_on_task(monkeypatch, "_count_slot_range", seen)
        h = graph.degrees().astype(np.int64)
        graph._scratch.clear()
        subset = np.arange(0, graph.num_vertices, 2)
        assert np.array_equal(
            backend.sweep_values(graph, h, subset),
            sweep_values_numpy(graph, h, subset),
        )
        subset_views = len(seen)
        member = np.zeros(graph.num_vertices, dtype=bool)
        member[subset] = True
        assert backend.induced_edge_count(graph, member) == (
            induced_edge_count_numpy(graph, member)
        )
        assert subset_views == 2 and len(seen) == 4
        for view in seen[:subset_views]:
            assert "degrees" in view["scratch"]
        for view in seen[subset_views:]:
            assert {"degrees", "heads"} <= set(view["scratch"])
        for view in seen:
            assert view["thread"].startswith("repro-backend")
            for key, writeable in view["scratch"].items():
                assert writeable is False, f"task scratch {key!r} is writeable"
        assert set(graph._scratch) == set(seen[-1]["scratch"])

    def test_range_layouts_cached_across_sweeps(self, backend, graph, monkeypatch):
        seen: list = []
        _spy_on_task(monkeypatch, "_full_sweep_range", seen)
        h = graph.degrees().astype(np.int64)
        backend.sweep_values(graph, h)
        first = [view["args"][-1] for view in seen]
        cached = backend._layouts[graph.fingerprint()]
        seen.clear()
        backend.sweep_values(graph, h)
        second = [view["args"][-1] for view in seen]
        # Re-sweeping hands the tasks the very layouts built the first time.
        assert backend._layouts[graph.fingerprint()] is cached
        assert len(backend._layouts) == 1
        assert len(first) == len(cached) == 2
        assert sorted(map(id, first)) == sorted(map(id, second))
        assert sorted(map(id, first)) == sorted(map(id, cached))


class TestThreadRules:
    def test_dispatched_sweep_leaves_csr_and_scratch_frozen(self, backend):
        graph = chung_lu_undirected(1_200, 6_000, seed=21)
        graph.indptr.setflags(write=False)
        graph.indices.setflags(write=False)
        indptr, indices = graph.indptr.copy(), graph.indices.copy()
        h = graph.degrees().astype(np.int64)
        backend.sweep_values(graph, h)
        backend.sweep_values(graph, h, np.arange(0, graph.num_vertices, 3))
        backend.induced_edge_count(graph, np.ones(graph.num_vertices, dtype=bool))
        assert np.array_equal(graph.indptr, indptr)
        assert np.array_equal(graph.indices, indices)
        assert graph.indptr.flags.writeable is False
        assert graph.indices.flags.writeable is False
        assert {"degrees", "heads"} <= set(graph._scratch)
        for key, array in graph._scratch.items():
            assert array.flags.writeable is False, f"scratch {key!r} is writeable"

    def test_task_exception_propagates_and_backend_recovers(
        self, backend, graph, monkeypatch
    ):
        h = graph.degrees().astype(np.int64)
        failure = RuntimeError("task failed")

        def explode(*args, **kwargs):
            raise failure

        monkeypatch.setattr(multiproc_module, "segment_h_index_numpy", explode)
        with pytest.raises(RuntimeError) as caught:
            backend.sweep_values(graph, h)
        assert caught.value is failure
        monkeypatch.undo()
        assert np.array_equal(
            backend.sweep_values(graph, h), sweep_values_numpy(graph, h)
        )

    def test_two_caller_threads_share_one_backend(self):
        # More workers than cores and a short switch interval, so the
        # callers interleave inside the backend; a lost counter update
        # or a torn layout-cache entry would show below.
        backend = MultiprocBackend(workers=4, inline_slot_cutoff=0)
        graphs = [chung_lu_undirected(900, 5_400, seed=s) for s in (3, 4)]
        rounds = 20
        results: dict = {}

        def sweep(index):
            g = graphs[index]
            h = g.degrees().astype(np.int64)
            expected = sweep_values_numpy(g, h)
            results[index] = all(
                np.array_equal(backend.sweep_values(g, h), expected)
                for _ in range(rounds)
            )

        callers = [threading.Thread(target=sweep, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(caller.is_alive() for caller in callers)
            assert results == {0: True, 1: True}
            assert backend.perf_snapshot()["dispatched_calls"] == 2 * rounds
            assert len(backend._layouts) == 2
        finally:
            backend.close()


class TestPoolLifecycle:
    def test_close_then_reuse_respawns(self, backend, graph):
        h = graph.degrees().astype(np.int64)
        expected = backend.sweep_values(graph, h)
        backend.close()
        assert backend._pool is None
        again = backend.sweep_values(graph, h)
        assert np.array_equal(expected, again)

    def test_close_is_idempotent(self, backend, graph):
        backend.sweep_values(graph, graph.degrees().astype(np.int64))
        backend.close()
        backend.close()
        assert backend._pool is None

    def test_graph_lru_evicts_and_stays_correct(self, backend):
        graphs = [chung_lu_undirected(300, 1_200, seed=s) for s in range(9)]
        for g in graphs:
            backend.sweep_values(g, g.degrees().astype(np.int64))
        assert len(backend._layouts) == 8  # layout cache cap
        assert graphs[0].fingerprint() not in backend._layouts
        # The evicted (first) graph still sweeps correctly, re-laid out.
        h0 = graphs[0].degrees().astype(np.int64)
        assert np.array_equal(
            backend.sweep_values(graphs[0], h0), sweep_values_numpy(graphs[0], h0)
        )
        assert len(backend._layouts) == 8


class TestPerfAccounting:
    def test_inline_cutoff_counts_inline_calls(self, graph):
        backend = MultiprocBackend(workers=2, inline_slot_cutoff=10**9)
        try:
            h = graph.degrees().astype(np.int64)
            backend.sweep_values(graph, h)
            snapshot = backend.perf_snapshot()
            assert snapshot["inline_calls"] == 1
            assert snapshot["dispatched_calls"] == 0
            assert backend._pool is None  # never created
        finally:
            backend.close()

    def test_dispatch_accumulates_and_resets(self, backend, graph):
        h = graph.degrees().astype(np.int64)
        backend.sweep_values(graph, h)
        snapshot = backend.perf_snapshot()
        assert snapshot["dispatched_calls"] == 1
        assert snapshot["tasks"] == 2
        assert snapshot["elapsed_s"] > 0.0
        assert snapshot["critical_s"] > 0.0
        backend.reset_perf()
        assert backend.perf_snapshot()["dispatched_calls"] == 0


class TestBalancedBounds:
    def test_balances_slot_mass_not_vertex_count(self):
        # One hub with 1000 slots then 1000 single-slot vertices: an
        # element split would give worker 0 half the vertices; the slot
        # split isolates the hub.
        degrees = np.concatenate([[1000], np.ones(1000, dtype=np.int64)])
        cumulative = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=cumulative[1:])
        bounds = balanced_bounds(cumulative, 2)
        assert bounds[0] == 0 and bounds[-1] == degrees.size
        assert bounds[1] <= 1  # the hub alone saturates worker 0

    def test_bounds_cover_range_monotonically(self):
        rng = np.random.default_rng(2)
        degrees = rng.integers(0, 50, size=777)
        cumulative = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=cumulative[1:])
        for parts in (1, 2, 3, 7):
            bounds = balanced_bounds(cumulative, parts)
            assert bounds.size == parts + 1
            assert bounds[0] == 0 and bounds[-1] == degrees.size
            assert np.all(np.diff(bounds) >= 0)

    def test_more_workers_than_vertices(self):
        cumulative = np.array([0, 3, 5], dtype=np.int64)
        bounds = balanced_bounds(cumulative, 8)
        assert bounds[0] == 0 and bounds[-1] == 2
        assert np.all(np.diff(bounds) >= 0)
