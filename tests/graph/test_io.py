"""Unit tests for edge-list I/O."""

import io

import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    DirectedGraph,
    UndirectedGraph,
    load_npz,
    read_directed_edgelist,
    read_undirected_edgelist,
    save_npz,
    write_edgelist,
)

SAMPLE = """\
# a comment
% konect-style comment
a b
b c 0.5 1234567
c a
"""


class TestReaders:
    def test_read_undirected(self):
        graph, labels = read_undirected_edgelist(io.StringIO(SAMPLE))
        assert graph.num_vertices == 3
        assert graph.num_edges == 3
        assert labels == ["a", "b", "c"]

    def test_read_directed(self):
        graph, labels = read_directed_edgelist(io.StringIO(SAMPLE))
        assert graph.num_edges == 3
        assert graph.has_edge(0, 1)  # a -> b
        assert not graph.has_edge(1, 0)

    def test_extra_columns_ignored(self):
        graph, _ = read_undirected_edgelist(io.StringIO("0 1 99 comment\n"))
        assert graph.num_edges == 1

    def test_blank_lines_skipped(self):
        graph, _ = read_undirected_edgelist(io.StringIO("\n\n0 1\n\n"))
        assert graph.num_edges == 1

    def test_single_column_rejected(self):
        with pytest.raises(GraphFormatError, match="two columns"):
            read_undirected_edgelist(io.StringIO("onlyone\n"))

    def test_read_from_path(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n", encoding="utf-8")
        graph, _ = read_undirected_edgelist(path)
        assert graph.num_edges == 2


class TestWriters:
    def test_round_trip_undirected(self, tmp_path):
        graph = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "out.txt"
        write_edgelist(graph, path, header="demo")
        reread, labels = read_undirected_edgelist(path)
        assert reread.num_edges == graph.num_edges
        assert "demo" in path.read_text(encoding="utf-8")

    def test_round_trip_directed(self, tmp_path):
        graph = DirectedGraph.from_edges(3, [(2, 0), (0, 1)])
        path = tmp_path / "out.txt"
        write_edgelist(graph, path)
        reread, labels = read_directed_edgelist(path)
        # Labels are interned in file order; degrees must be isomorphic.
        assert reread.num_edges == graph.num_edges
        assert sorted(reread.out_degrees()) == sorted(graph.out_degrees())

    def test_write_to_stream(self):
        graph = UndirectedGraph.from_edges(2, [(0, 1)])
        buffer = io.StringIO()
        write_edgelist(graph, buffer)
        assert "0 1" in buffer.getvalue()


class TestNpz:
    def test_round_trip_undirected(self, tmp_path):
        graph = UndirectedGraph.from_edges(5, [(0, 1), (3, 4)])
        path = tmp_path / "g.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert isinstance(loaded, UndirectedGraph)
        assert loaded == graph

    def test_round_trip_directed(self, tmp_path):
        graph = DirectedGraph.from_edges(5, [(4, 0), (0, 1)])
        path = tmp_path / "d.npz"
        save_npz(graph, path)
        loaded = load_npz(path)
        assert isinstance(loaded, DirectedGraph)
        assert loaded == graph

    def test_missing_field_rejected(self, tmp_path):
        import numpy as np

        path = tmp_path / "bad.npz"
        np.savez_compressed(path, kind=np.array("undirected"))
        with pytest.raises(GraphFormatError):
            load_npz(path)
