"""Dtype-aware index compaction: thresholds and the int64 escape hatch."""

import numpy as np

from repro.graph import UndirectedGraph
from repro.store.compact import (
    INT32_MAX,
    forced_int64,
    index_dtype,
    int64_forced,
    set_force_int64,
)


class TestIndexDtype:
    def test_small_graph_narrows(self):
        assert index_dtype(10, 20) == np.dtype(np.int32)

    def test_boundary_values_still_narrow(self):
        assert index_dtype(INT32_MAX, INT32_MAX) == np.dtype(np.int32)

    def test_too_many_vertices_stays_wide(self):
        assert index_dtype(INT32_MAX + 1, 0) == np.dtype(np.int64)

    def test_large_offsets_stay_wide(self):
        # max_entry models the largest *offset* an index buffer holds
        # (2m + n for graphs that build the hindex-bin scratch), so it
        # alone can force int64 even when vertex ids fit.
        assert index_dtype(10, INT32_MAX + 1) == np.dtype(np.int64)

    def test_forced_int64_overrides(self):
        with forced_int64():
            assert index_dtype(10, 20) == np.dtype(np.int64)
        assert index_dtype(10, 20) == np.dtype(np.int32)


class TestEscapeHatch:
    def test_set_force_returns_previous(self):
        assert set_force_int64(True) is False
        try:
            assert int64_forced() is True
            assert set_force_int64(True) is True
        finally:
            set_force_int64(False)
        assert int64_forced() is False

    def test_context_manager_restores_on_error(self):
        try:
            with forced_int64():
                assert int64_forced()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not int64_forced()


class TestGraphIntegration:
    def test_small_graph_is_int32(self):
        graph = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert graph.indptr.dtype == np.dtype(np.int32)
        assert graph.indices.dtype == np.dtype(np.int32)

    def test_forced_int64_doubles_structural_bytes(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        narrow = UndirectedGraph.from_edges(4, edges)
        with forced_int64():
            wide = UndirectedGraph.from_edges(4, edges)
        narrow_bytes = narrow.memory_bytes(include_scratch=False)
        wide_bytes = wide.memory_bytes(include_scratch=False)
        assert wide_bytes == 2 * narrow_bytes

    def test_dtype_participates_in_fingerprint(self):
        edges = [(0, 1), (1, 2)]
        narrow = UndirectedGraph.from_edges(3, edges)
        with forced_int64():
            wide = UndirectedGraph.from_edges(3, edges)
        assert narrow.fingerprint() != wide.fingerprint()
