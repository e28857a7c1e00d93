"""Counting-sort CSR builders == the lexsort reference, bit for bit.

This is the equivalence suite the docstring of :mod:`repro.store.csr`
points at: every builder output (``indptr`` and ``indices``) must equal
the original lexsort formulation exactly, across graph families, both
index dtypes, and shuffled inputs.  The sort-based dedup helpers must
likewise equal the ``np.unique`` calls they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import GraphError
from repro.graph import DirectedGraph, chung_lu_directed, chung_lu_undirected
from repro.store.compact import forced_int64
from repro.store.csr import (
    _sort_key_dtype,
    counting_sort_csr,
    csr_from_sorted_canonical,
    reference_csr_from_canonical,
    sorted_unique,
    unique_pairs,
)


def star_edges(n):
    spokes = np.arange(1, n, dtype=np.int64)
    return np.stack([np.zeros(n - 1, dtype=np.int64), spokes], axis=1)


def path_edges(n):
    left = np.arange(n - 1, dtype=np.int64)
    return np.stack([left, left + 1], axis=1)


def clique_edges(n):
    u, v = np.triu_indices(n, k=1)
    return np.stack([u.astype(np.int64), v.astype(np.int64)], axis=1)


def chung_lu_edges(n, m, seed):
    return chung_lu_undirected(n, m, seed=seed).edges()


FAMILIES = [
    pytest.param(0, np.empty((0, 2), dtype=np.int64), id="empty"),
    pytest.param(1, np.empty((0, 2), dtype=np.int64), id="single-vertex"),
    pytest.param(9, star_edges(9), id="star"),
    pytest.param(12, path_edges(12), id="path"),
    pytest.param(8, clique_edges(8), id="clique"),
    pytest.param(300, chung_lu_edges(300, 900, 3), id="chung-lu-small"),
    pytest.param(1500, chung_lu_edges(1500, 6000, 4), id="chung-lu-medium"),
]


@pytest.mark.parametrize("num_vertices, canon", FAMILIES)
@pytest.mark.parametrize("dtype", [np.int32, np.int64], ids=["int32", "int64"])
def test_undirected_builder_matches_reference(num_vertices, canon, dtype):
    ref_indptr, ref_indices = reference_csr_from_canonical(num_vertices, canon)
    indptr, indices = csr_from_sorted_canonical(num_vertices, canon, dtype=dtype)
    assert indptr.dtype == np.dtype(dtype)
    assert indices.dtype == np.dtype(dtype)
    assert np.array_equal(indptr, ref_indptr)
    assert np.array_equal(indices, ref_indices)


@pytest.mark.parametrize("num_vertices, canon", FAMILIES)
def test_directed_builder_matches_lexsort(num_vertices, canon):
    # Treat the canonical list as arcs in both directions so heads
    # carry duplicates and ties exercise stability.
    heads = np.concatenate([canon[:, 0], canon[:, 1]])
    tails = np.concatenate([canon[:, 1], canon[:, 0]])
    indptr, indices, order = counting_sort_csr(num_vertices, heads, tails)
    expected_order = np.lexsort((tails, heads))
    assert np.array_equal(order, expected_order)
    assert np.array_equal(indices, tails[expected_order])
    degrees = np.bincount(heads, minlength=num_vertices)
    assert np.array_equal(np.diff(indptr), degrees)


def test_unsorted_rows_raise():
    canon = clique_edges(6)
    rng = np.random.default_rng(0)
    shuffled = canon[rng.permutation(canon.shape[0])]
    with pytest.raises(GraphError, match="lex-sorted"):
        csr_from_sorted_canonical(6, shuffled)


def test_forced_int64_graph_matches_narrowed_graph_structure():
    from repro.graph import UndirectedGraph

    edges = chung_lu_edges(400, 1600, 5)
    narrow = UndirectedGraph.from_edges(400, edges)
    with forced_int64():
        wide = UndirectedGraph.from_edges(400, edges)
    assert narrow.indptr.dtype == np.dtype(np.int32)
    assert wide.indptr.dtype == np.dtype(np.int64)
    assert np.array_equal(narrow.indptr, wide.indptr)
    assert np.array_equal(narrow.indices, wide.indices)


class TestSortKeyDtype:
    def test_thresholds(self):
        assert _sort_key_dtype(1) == np.dtype(np.uint16)
        assert _sort_key_dtype(1 << 16) == np.dtype(np.uint16)
        assert _sort_key_dtype((1 << 16) + 1) == np.dtype(np.uint32)
        assert _sort_key_dtype(1 << 32) == np.dtype(np.uint32)
        assert _sort_key_dtype((1 << 32) + 1) == np.dtype(np.int64)

    def test_narrowed_key_preserves_order(self):
        # Values up to the uint16 boundary must survive the cast.
        values = np.array([0, 65535, 1, 65534, 2], dtype=np.int64)
        narrowed = values.astype(_sort_key_dtype(1 << 16))
        assert np.array_equal(
            np.argsort(narrowed, kind="stable"),
            np.argsort(values, kind="stable"),
        )


class TestSortedUnique:
    """``sorted_unique`` == the hash-path ``np.unique`` it replaces."""

    @given(
        hnp.arrays(
            dtype=st.sampled_from([np.int32, np.int64, np.uint32]),
            shape=hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=40),
            elements={"min_value": 0, "max_value": 50},
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @given(st.lists(st.integers(-(2**62), 2**62), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_negative_and_wide_values(self, values):
        array = np.array(values, dtype=np.int64)
        assert np.array_equal(sorted_unique(array), np.unique(array))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            np.array([7], dtype=np.int32),
            np.full(9, 4, dtype=np.uint32),
            np.array([[3, -1], [-1, 3]], dtype=np.int64),
            np.array([2.5, 0.25, 2.5, -1.0]),
        ],
        ids=["empty-int", "empty-float", "one", "all-equal", "2d-negative", "float"],
    )
    def test_edge_cases(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


class TestUniquePairs:
    """``unique_pairs`` == ``np.unique(np.stack([h, t], 1), axis=0)``."""

    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=80,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_unique(self, case):
        n, pairs = case
        # Duplicates, reversed pairs and self-loops all stay in the input.
        pairs = pairs + pairs[::3] + [(t, h) for h, t in pairs[::2]]
        rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        got = unique_pairs(n, rows[:, 0], rows[:, 1])
        expected = np.unique(rows, axis=0)
        assert got.dtype == np.dtype(np.int64)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_narrow_input_dtype(self):
        heads = np.array([4, 0, 4, 2], dtype=np.int32)
        tails = np.array([1, 3, 1, 2], dtype=np.int32)
        got = unique_pairs(5, heads, tails)
        assert np.array_equal(got, [[0, 3], [2, 2], [4, 1]])

    def test_empty(self):
        got = unique_pairs(0, [], [])
        assert got.shape == (0, 2)
        assert got.dtype == np.dtype(np.int64)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_directed_from_edges_matches_row_unique_build(seed):
    # Rows deduplicated by np.unique(axis=0) are the reference: building
    # from them directly must give the same dual-CSR arrays.
    rng = np.random.default_rng(seed)
    arcs = chung_lu_directed(400, 2400, seed=seed).edges()
    arcs = np.concatenate([arcs, arcs[: arcs.shape[0] // 4], [[5, 5], [9, 9]]])
    arcs = arcs[rng.permutation(arcs.shape[0])]
    graph = DirectedGraph.from_edges(400, arcs)
    rows = np.unique(arcs[arcs[:, 0] != arcs[:, 1]], axis=0)
    reference = DirectedGraph(400, rows[:, 0], rows[:, 1])
    for name in (
        "edge_src", "edge_dst",
        "out_indptr", "out_indices", "out_edge_ids",
        "in_indptr", "in_indices", "in_edge_ids",
    ):
        mine, theirs = getattr(graph, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name
    assert graph.fingerprint() == reference.fingerprint()
