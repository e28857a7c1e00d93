"""The min-degree peel against the bucket queue it replaced.

``TestBucketQueue`` pins the reference queue itself; the other classes
require the library's peels to return the reference's bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.undirected.charikar import charikar_peel
from repro.algorithms.undirected.greedypp import _one_load_aware_peel
from repro.errors import GraphError
from repro.graph import UndirectedGraph, min_degree_order

from .peel_reference import (
    MinDegreeBucketQueue,
    reference_charikar,
    reference_load_aware_peel,
)


class TestBucketQueue:
    def test_pop_order(self):
        queue = MinDegreeBucketQueue(np.array([3, 1, 2, 1]))
        popped = [queue.pop_min() for _ in range(4)]
        keys = [k for _, k in popped]
        assert keys == sorted(keys)

    def test_decrease_key(self):
        queue = MinDegreeBucketQueue(np.array([5, 5, 5]))
        queue.decrease_key(2)
        queue.decrease_key(2)
        vertex, key = queue.pop_min()
        assert vertex == 2
        assert key == 3

    def test_decrease_after_pop_is_noop(self):
        queue = MinDegreeBucketQueue(np.array([1, 2]))
        vertex, _ = queue.pop_min()
        queue.decrease_key(vertex)  # must not corrupt the structure
        assert queue.pop_min()[0] != vertex

    def test_decrease_at_zero_is_noop(self):
        queue = MinDegreeBucketQueue(np.array([0, 1]))
        queue.decrease_key(0)
        assert queue.pop_min() == (0, 0)

    def test_empty_pop_raises(self):
        queue = MinDegreeBucketQueue(np.array([], dtype=np.int64))
        with pytest.raises(GraphError):
            queue.pop_min()

    def test_negative_keys_rejected(self):
        with pytest.raises(GraphError):
            MinDegreeBucketQueue(np.array([-1]))

    def test_len_and_peek(self):
        queue = MinDegreeBucketQueue(np.array([4, 2]))
        assert len(queue) == 2
        assert queue.peek_min_key() == 2

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_pop_sequence_sorted_without_decreases(self, keys):
        queue = MinDegreeBucketQueue(np.array(keys))
        popped = [queue.pop_min()[1] for _ in range(len(keys))]
        assert popped == sorted(keys)


def _clique(vertices):
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1:]]


CORPUS = {
    "edgeless": UndirectedGraph.empty(4),
    "star": UndirectedGraph.from_edges(9, [(0, v) for v in range(1, 9)]),
    "path": UndirectedGraph.from_edges(7, [(v, v + 1) for v in range(6)]),
    "clique": UndirectedGraph.from_edges(6, _clique(list(range(6)))),
    "two-cliques-joined-by-a-path": UndirectedGraph.from_edges(
        13,
        _clique([0, 1, 2, 3, 4]) + [(4, 5), (5, 6), (6, 7)]
        + _clique([7, 8, 9, 10]),
    ),
}


@st.composite
def peel_graphs(draw):
    """A disjoint union of random parts plus isolated vertices.

    Small parts make degree ties common; the union has several components.
    """
    edges = []
    offset = 0
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 12))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=3 * size,
        ))
        edges.extend((offset + u, offset + v) for u, v in pairs)
        offset += size
    num_vertices = offset + draw(st.integers(0, 3))
    permutation = draw(st.permutations(range(num_vertices)))
    edges = [(permutation[u], permutation[v]) for u, v in edges]
    return UndirectedGraph.from_edges(num_vertices, edges)


def _fresh(graph):
    """The same CSR with an empty scratch cache."""
    return UndirectedGraph(graph.indptr.copy(), graph.indices.copy())


def assert_peels_match_reference(graph):
    pop_order, vertices, density, iterations = reference_charikar(graph)
    order = min_degree_order(graph)
    assert order.dtype == np.int64
    assert order.tolist() == pop_order
    if graph.num_edges == 0:
        return
    result = charikar_peel(_fresh(graph))
    assert np.array_equal(result.vertices, vertices)
    assert result.vertices.dtype == vertices.dtype
    assert type(result.density) is float
    assert result.density == density
    assert result.iterations == iterations


class TestMinDegreeOrder:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_matches_reference(self, name):
        assert_peels_match_reference(CORPUS[name])

    @given(peel_graphs())
    @settings(max_examples=150, deadline=None)
    def test_random_graphs_match_reference(self, graph):
        assert_peels_match_reference(graph)

    def test_charikar_caches_only_degrees(self):
        graph = _fresh(CORPUS["two-cliques-joined-by-a-path"])
        charikar_peel(graph)
        assert list(graph._scratch) == ["degrees"]


class TestLoadAwarePeel:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_rounds_match_reference(self, name):
        self._assert_rounds_match(CORPUS[name])

    @given(peel_graphs())
    @settings(max_examples=60, deadline=None)
    def test_random_rounds_match_reference(self, graph):
        self._assert_rounds_match(graph)

    @staticmethod
    def _assert_rounds_match(graph, rounds=3):
        if graph.num_edges == 0:
            return
        loads = expected_loads = np.zeros(graph.num_vertices)
        for _ in range(rounds):
            vertices, density, loads = _one_load_aware_peel(graph, loads)
            expected, expected_density, expected_loads = (
                reference_load_aware_peel(graph, expected_loads)
            )
            assert np.array_equal(vertices, expected)
            assert vertices.dtype == expected.dtype
            assert type(density) is float
            assert density == expected_density
            assert np.array_equal(loads, expected_loads)
            assert loads.dtype == expected_loads.dtype
