"""Unit tests for the incremental graph builders."""

from repro.graph import DirectedGraphBuilder, GraphBuilder


class TestGraphBuilder:
    def test_labels_interned_in_order(self):
        builder = GraphBuilder()
        builder.add_edge("x", "y").add_edge("y", "z")
        graph, labels = builder.build_with_labels()
        assert labels == ["x", "y", "z"]
        assert graph.num_edges == 2

    def test_integer_like_labels(self):
        builder = GraphBuilder()
        builder.add_edge(10, 20).add_edge(20, 30)
        graph, labels = builder.build_with_labels()
        assert labels == [10, 20, 30]
        assert graph.num_vertices == 3

    def test_mixed_type_tokens_are_distinct_vertices(self):
        # Dict semantics, not textual rendering: int 1 != str "1".
        builder = GraphBuilder()
        builder.add_edge(1, "1").add_edge("1", 2)
        graph, labels = builder.build_with_labels()
        assert labels == [1, "1", 2]
        assert graph.num_vertices == 3
        assert graph.num_edges == 2

    def test_bool_and_int_tokens_collide_first_seen_label_wins(self):
        # True == 1 and hash(True) == hash(1), so they intern to one
        # vertex; the stored label is the first token seen.
        builder = GraphBuilder()
        builder.add_edge(True, 0).add_edge(1, 2)
        graph, labels = builder.build_with_labels()
        assert labels == [True, 0, 2]
        assert graph.num_vertices == 3
        assert graph.has_edge(0, 2)  # the "1" endpoint is vertex True

    def test_many_single_appends(self):
        builder = GraphBuilder()
        for i in range(2000):
            builder.add_edge(i, i + 1)
        assert builder.build().num_edges == 2000

    def test_duplicate_edges_deduped_at_build(self):
        builder = GraphBuilder()
        builder.add_edge("a", "b").add_edge("b", "a")
        assert builder.build().num_edges == 1

    def test_empty_build(self):
        assert GraphBuilder().build().num_edges == 0


class TestDirectedGraphBuilder:
    def test_direction_preserved(self):
        builder = DirectedGraphBuilder()
        builder.add_edge("a", "b").add_edge("b", "a")
        graph, labels = builder.build_with_labels()
        assert graph.num_edges == 2
        assert labels == ["a", "b"]
