"""Unit tests for the bucket queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import MinDegreeBucketQueue


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
