"""Tests for the dynamic k*-core maintainer."""

import copy
from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pkmc
from repro.core.dynamic import DynamicKStarCore
from repro.errors import EmptyGraphError, GraphError
from repro.graph import UndirectedGraph, gnm_random_undirected

from .upkeep_reference import ReferenceUpkeep


def _nx_core_numbers(edges, n):
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    return nx.core_number(g)


class TestMutation:
    def test_insert_and_duplicate(self):
        tracker = DynamicKStarCore(4)
        assert tracker.insert_edge(0, 1)
        assert not tracker.insert_edge(1, 0)  # same undirected edge
        assert tracker.num_edges == 1

    def test_delete(self):
        tracker = DynamicKStarCore(4)
        tracker.insert_edge(0, 1)
        assert tracker.delete_edge(0, 1)
        assert not tracker.delete_edge(0, 1)
        assert tracker.num_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            DynamicKStarCore(3).insert_edge(1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            DynamicKStarCore(3).insert_edge(0, 5)

    def test_bulk_insert_counts_new_only(self):
        tracker = DynamicKStarCore(5)
        added = tracker.insert_edges([(0, 1), (1, 2), (1, 0)])
        assert added == 2


class TestCoreMaintenance:
    def test_triangle_build_up(self):
        tracker = DynamicKStarCore(3)
        tracker.insert_edge(0, 1)
        assert tracker.k_star() == 1
        tracker.insert_edge(1, 2)
        assert tracker.k_star() == 1
        tracker.insert_edge(0, 2)
        assert tracker.k_star() == 2

    def test_deletion_drops_core(self):
        tracker = DynamicKStarCore(3)
        tracker.insert_edges([(0, 1), (1, 2), (0, 2)])
        assert tracker.k_star() == 2
        tracker.delete_edge(0, 1)
        assert tracker.k_star() == 1

    def test_matches_static_pkmc(self):
        g = gnm_random_undirected(25, 60, seed=0)
        tracker = DynamicKStarCore(25)
        tracker.insert_edges(g.edges())
        static = pkmc(g)
        result = tracker.densest_subgraph()
        assert result.k_star == static.k_star
        assert result.vertices.tolist() == static.vertices.tolist()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_incremental_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = 15
        tracker = DynamicKStarCore(n)
        current: set[tuple[int, int]] = set()
        for _ in range(4):  # four mixed batches
            for _ in range(8):
                u, v = rng.integers(0, n, size=2)
                if u == v:
                    continue
                key = (min(u, v), max(u, v))
                if key in current and rng.random() < 0.5:
                    tracker.delete_edge(int(u), int(v))
                    current.discard(key)
                else:
                    tracker.insert_edge(int(u), int(v))
                    current.add(key)
            if not current:
                continue
            expected = _nx_core_numbers(sorted(current), n)
            got = tracker.core_numbers()
            assert all(got[v] == expected[v] for v in range(n))

    def test_warm_start_never_worse_than_cold(self):
        # A warm start cannot slow convergence down (it is a pointwise
        # tighter upper bound than the degrees) — but, as the module
        # docstring explains, it cannot beat the erosion depth either.
        g = gnm_random_undirected(400, 1600, seed=2)
        tracker = DynamicKStarCore(400)
        tracker.insert_edges(g.edges())
        tracker.core_numbers()
        sweeps_initial = tracker.total_sweeps
        rng = np.random.default_rng(3)
        while True:
            u, v = rng.integers(0, 400, size=2)
            if u != v and tracker.insert_edge(int(u), int(v)):
                break
        tracker.core_numbers()
        assert tracker.total_sweeps - sweeps_initial <= sweeps_initial + 1

    def test_batching_amortises_refreshes(self):
        # In rebuild mode (the bench baseline) batching is the only
        # amortization: 60 mutations + 1 query = 1 refresh, not 60.
        # Incremental mode spreads the same work over per-update local
        # sweeps instead, so the claim is pinned on incremental=False.
        g = gnm_random_undirected(300, 900, seed=4)
        edges = g.edges()
        eager = DynamicKStarCore(300, incremental=False)
        eager.insert_edges(edges[:840])
        eager.core_numbers()
        for u, v in edges[840:]:
            eager.insert_edge(int(u), int(v))
            eager.core_numbers()          # query after every edge
        lazy = DynamicKStarCore(300, incremental=False)
        lazy.insert_edges(edges[:840])
        lazy.core_numbers()
        lazy.insert_edges(edges[840:])    # one batch, one refresh
        lazy.core_numbers()
        assert np.array_equal(lazy.core_numbers(), eager.core_numbers())
        assert lazy.total_sweeps < eager.total_sweeps / 3
        # The incremental path lands on the same cores either way.
        incr = DynamicKStarCore(300)
        incr.insert_edges(edges[:840])
        incr.core_numbers()
        incr.insert_edges(edges[840:])
        assert np.array_equal(incr.core_numbers(), eager.core_numbers())

    def test_empty_densest_rejected(self):
        tracker = DynamicKStarCore(3)
        with pytest.raises(EmptyGraphError):
            tracker.densest_subgraph()

    def test_lazy_refresh(self):
        tracker = DynamicKStarCore(4)
        tracker.insert_edge(0, 1)
        sweeps_before = tracker.total_sweeps
        tracker.insert_edge(1, 2)
        tracker.insert_edge(2, 3)
        # No queries yet: no sweeps spent.
        assert tracker.total_sweeps == sweeps_before
        tracker.k_star()
        assert tracker.total_sweeps > sweeps_before

class TestBatchValidation:
    """ISSUE 10 satellites: batch mutators and their atomicity contract."""

    def test_stream_mutation_error_is_a_value_error(self):
        # Callers treating bad payloads as plain bad arguments and
        # callers catching the graph-error hierarchy both work.
        tracker = DynamicKStarCore(3)
        with pytest.raises(ValueError):
            tracker.insert_edges([(0, 0)])
        with pytest.raises(GraphError):
            tracker.insert_edges([(0, 7)])

    def test_error_messages_point_at_the_offender(self):
        tracker = DynamicKStarCore(3)
        with pytest.raises(GraphError, match=r"\(1, 1\).*self-loop"):
            tracker.insert_edge(1, 1)
        with pytest.raises(GraphError, match=r"\(0, 5\).*out of range"):
            tracker.delete_edge(0, 5)

    def test_poisoned_batch_applies_nothing(self):
        tracker = DynamicKStarCore(4)
        tracker.insert_edges([(0, 1)])
        fingerprint = tracker.graph().fingerprint()
        with pytest.raises(ValueError):
            tracker.insert_edges([(1, 2), (3, 3)])
        assert tracker.num_edges == 1
        assert tracker.graph().fingerprint() == fingerprint

    def test_delete_nonexistent_is_a_counted_noop(self):
        tracker = DynamicKStarCore(4)
        tracker.insert_edges([(0, 1), (1, 2)])
        tracker.k_star()
        sweeps = tracker.total_sweeps
        assert not tracker.delete_edge(0, 2)
        assert not tracker.delete_edge(2, 3)
        # nothing changed: the next query spends no further sweeps
        tracker.k_star()
        assert tracker.total_sweeps == sweeps

    def test_empty_batch_does_not_bump_the_fingerprint(self):
        tracker = DynamicKStarCore(4)
        tracker.insert_edges([(0, 1), (1, 2)])
        fingerprint = tracker.graph().fingerprint()
        stats = dict(tracker.stats())
        assert tracker.insert_edges([]) == 0
        assert tracker.insert_edges([(0, 1)]) == 0  # duplicate: also a no-op
        assert tracker.graph().fingerprint() == fingerprint
        assert tracker.stats() == stats


def _canonical(u, v):
    return (u, v) if u < v else (v, u)


def _random_batch(rng, n, model):
    """One batch of ``(op, edges)`` steps, applied in order.

    Inserts repeat an edge (also reversed) and deletes mix present edges
    with random, mostly absent ones; the batch ends by toggling one edge
    twice, so an insert-then-delete or a delete-then-reinsert of the
    same edge cancels inside the batch.
    """
    size = int(rng.choice([1, 3, max(4, n // 2), 2 * n]))
    pairs = rng.integers(0, n, size=(size, 2))
    inserts = [(int(u), int(v)) for u, v in pairs if u != v]
    if inserts:
        u, v = inserts[0]
        inserts += [(u, v), (v, u)]
    present = sorted(model)
    deletes = [tuple(map(int, p)) for p in rng.integers(0, n, size=(size // 2, 2))
               if p[0] != p[1]]
    if present:
        deletes += [present[i] for i in rng.integers(0, len(present), size=size)]
    steps = [(+1, inserts), (-1, deletes)]
    u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
    if _canonical(u, v) in model:
        steps += [(-1, [(u, v)]), (+1, [(v, u)])]
    else:
        steps += [(+1, [(u, v)]), (-1, [(v, u)])]
    return steps


def _drive_against_model(seed, n, num_batches, reads="kgd", **options):
    """Random batches against a tracker and a Python-set model.

    After every batch the tracker is read once (``reads`` picks among
    ``k_star()``, ``graph()`` and ``densest_subgraph()``), then checked
    against the model: return counts, ``num_edges``, the CSR a fold of
    the current state gives (on a copy, so the tracker's overlay keeps
    growing) and the core numbers.  Returns how often each maintenance
    path fired: ``upfront`` and ``mid_batch`` rebuild fallbacks, and
    ``compaction`` of the overlay.
    """
    rng = np.random.default_rng(seed)
    tracker = DynamicKStarCore(n, **options)
    max_region = max(1, int(tracker._region_fraction * n))
    model: set[tuple[int, int]] = set()
    paths: Counter = Counter()
    for _ in range(num_batches):
        for op, edges in _random_batch(rng, n, model):
            keys = {_canonical(u, v) for u, v in edges}
            if op > 0:
                assert tracker.insert_edges(edges) == len(keys - model)
                model |= keys
            else:
                removed = sum(tracker.delete_edge(u, v) for u, v in edges)
                assert removed == len(keys & model)
                model -= keys
            assert tracker.num_edges == len(model)
        pending = len(tracker._pending)
        base, rebuilds = tracker._base_graph, tracker.rebuilds
        read = reads[int(rng.integers(len(reads)))]
        if read == "g":
            tracker.graph()
        elif read == "k":
            tracker.k_star()
        elif model:
            tracker.densest_subgraph()
        else:
            with pytest.raises(EmptyGraphError):
                tracker.densest_subgraph()
        if tracker.rebuilds > rebuilds:
            paths["upfront" if pending > max_region else "mid_batch"] += 1
        elif read != "g" and tracker._base_graph is not base:
            paths["compaction"] += 1
        expected = UndirectedGraph.from_edges(n, sorted(model))
        folded = copy.deepcopy(tracker).graph()
        assert np.array_equal(folded.indptr, expected.indptr)
        assert np.array_equal(folded.indices, expected.indices)
        assert folded.indptr.dtype == expected.indptr.dtype
        assert folded.indices.dtype == expected.indices.dtype
        assert folded.fingerprint() == expected.fingerprint()
        cores = _nx_core_numbers(sorted(model), n)
        assert tracker.core_numbers().tolist() == [cores[v] for v in range(n)]
    return paths


class TestStoreAgainstSetModel:
    """The edge store, its overlay folds and both fallbacks vs a set model."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(5, 90),
        region_fraction=st.sampled_from([0.02, 0.1, 0.25, 1.0]),
        overlay_fraction=st.sampled_from([0.001, 0.05, 0.5]),
        incremental=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_batches_match_the_model(
        self, seed, n, region_fraction, overlay_fraction, incremental
    ):
        _drive_against_model(
            seed, n, 12, region_fraction=region_fraction,
            overlay_fraction=overlay_fraction, incremental=incremental,
        )

    def test_compaction_and_both_fallbacks_fire(self):
        # Unfolded reads let the overlay outgrow its threshold...
        grown = _drive_against_model(
            2, 200, 20, reads="kd", region_fraction=1.0, overlay_fraction=0.001,
        )
        assert grown["compaction"] > 0
        # ...and a tiny region budget trips both rebuild fallbacks.
        tight = _drive_against_model(2, 120, 30, region_fraction=0.05)
        assert tight["upfront"] > 0
        assert tight["mid_batch"] > 0


def _record_updates(tracker):
    """Log ``(key, op, region size or None, cores)`` per replayed update."""
    log = []
    maintain = tracker._maintain_one

    def recording(key, op, max_region):
        size = maintain(key, op, max_region)
        cores = None if size is None else tracker._h.tolist()
        log.append((key, op, size, cores))
        return size

    tracker._maintain_one = recording
    return log


def _block_graph(rng, blocks, size):
    """Random blocks of growing density plus sparse links between them.

    Each block's core numbers cluster on one value, so a deletion inside
    a block walks most of it: regions of 65–120 vertices.
    """
    parts = [
        gnm_random_undirected(
            size, size * (2 + i), seed=int(rng.integers(2**31))
        ).edges() + i * size
        for i in range(blocks)
    ]
    n = blocks * size
    links = rng.integers(0, n, size=(n // 10, 2))
    parts.append(links[links[:, 0] != links[:, 1]])
    return n, np.concatenate(parts)


def _lockstep(seed, region_fraction, batches=10, batch_size=12, blocks=5,
              size=100):
    """Replay one random timeline through the library and the reference.

    Mixed batches (deletions of present edges, re-inserts of deleted
    base edges, insertions inside a block) are read with ``k_star()``
    only, so nothing folds the overlay between batches; overlay
    compaction is off.  After every replayed update both sides must
    report the same region size or overflow and the same core numbers.
    Returns how many updates fell in each region class.
    """
    rng = np.random.default_rng(seed)
    n, edges = _block_graph(rng, blocks, size)
    pair = [cls(n, region_fraction=region_fraction, overlay_fraction=1e6)
            for cls in (DynamicKStarCore, ReferenceUpkeep)]
    for tracker in pair:
        tracker.insert_edges(edges)
        tracker.k_star()
    logs = [_record_updates(tracker) for tracker in pair]
    present = sorted({_canonical(int(u), int(v)) for u, v in edges})
    live, deleted = set(present), []
    kinds: Counter = Counter()
    for _ in range(batches):
        for _ in range(batch_size):
            coin = rng.random()
            if coin < 0.4:
                key = present[int(rng.integers(len(present)))]
                if key in live:
                    live.discard(key)
                    deleted.append(key)
                for tracker in pair:
                    tracker.delete_edge(*key)
                continue
            if coin < 0.6 and deleted:
                key = deleted[int(rng.integers(len(deleted)))]
            else:
                block = int(rng.integers(blocks)) * size
                u, v = (int(x) + block for x in rng.integers(0, size, 2))
                if u == v:
                    continue
                key = _canonical(u, v)
            live.add(key)
            for tracker in pair:
                tracker.insert_edge(*key)
        assert pair[0].k_star() == pair[1].k_star()
        assert logs[0] == logs[1]
        for _, _, region, _ in logs[0]:
            kinds["overflow" if region is None else
                  "none" if region == 0 else
                  "large" if region > 64 else "small"] += 1
        logs[0].clear()
        logs[1].clear()
        assert np.array_equal(pair[0]._h, pair[1]._h)
        for name in ("affected_last", "affected_total", "rebuilds",
                     "incremental_refreshes"):
            assert pair[0].stats()[name] == pair[1].stats()[name], name
    cores = _nx_core_numbers(sorted(live), n)
    assert pair[0].core_numbers().tolist() == [cores[v] for v in range(n)]
    return kinds


class TestUpkeepAgainstReference:
    """The subcore walk and peel against the NumPy closure and converge."""

    @given(seed=st.integers(0, 2**32 - 1),
           region_fraction=st.sampled_from([0.05, 0.15, 0.25]))
    @settings(max_examples=12, deadline=None)
    def test_lockstep_per_update(self, seed, region_fraction):
        _lockstep(seed, region_fraction)

    def test_every_region_class_occurs(self):
        kinds = Counter()
        for seed in range(4):
            for region_fraction in (0.05, 0.25):
                kinds.update(_lockstep(seed, region_fraction))
        assert set(kinds) == {"overflow", "none", "large", "small"}

    def test_one_sweep_per_region_peel(self):
        tracker = DynamicKStarCore(4, region_fraction=1.0)
        tracker.insert_edges([(0, 1), (1, 2)])
        tracker.k_star()
        sweeps = tracker.total_sweeps
        tracker.insert_edge(0, 2)  # the triangle: a region of three
        assert tracker.k_star() == 2
        assert tracker.affected_last == 3
        assert tracker.total_sweeps == sweeps + 1
