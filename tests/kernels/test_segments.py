"""The sort-free segmented h-index kernel agrees with the references."""

import numpy as np
import pytest

from repro.core.hindex import h_index
from repro.kernels import (
    concat_ranges,
    reference_segment_h_index,
    segment_h_index,
)


def random_segments(rng, num_segments, max_len, max_value):
    """Random CSR segmentation (including empty segments) plus values."""
    lens = rng.integers(0, max_len + 1, size=num_segments)
    seg_ptr = np.zeros(num_segments + 1, dtype=np.int64)
    np.cumsum(lens, out=seg_ptr[1:])
    values = rng.integers(0, max_value + 1, size=int(seg_ptr[-1]))
    return seg_ptr, values


class TestConcatRanges:
    def test_matches_naive_concatenation(self):
        rng = np.random.default_rng(7)
        starts = rng.integers(0, 100, size=40)
        lengths = rng.integers(0, 9, size=40)
        expected = np.concatenate(
            [np.arange(s, s + l) for s, l in zip(starts, lengths)]
            or [np.empty(0, dtype=np.int64)]
        )
        assert np.array_equal(concat_ranges(starts, lengths), expected)

    def test_empty_input(self):
        out = concat_ranges(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert out.size == 0

    def test_all_zero_lengths(self):
        out = concat_ranges(np.array([3, 9]), np.array([0, 0]))
        assert out.size == 0

    def test_interleaved_zero_lengths(self):
        out = concat_ranges(np.array([5, 2, 0, 7]), np.array([2, 0, 3, 1]))
        assert out.tolist() == [5, 6, 0, 1, 2, 7]


class TestSegmentHIndex:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_matches_lexsort_reference_and_scalar(self, seed):
        rng = np.random.default_rng(seed)
        seg_ptr, values = random_segments(
            rng,
            num_segments=int(rng.integers(1, 60)),
            max_len=int(rng.integers(1, 25)),
            max_value=int(rng.integers(0, 30)),
        )
        fast = segment_h_index(seg_ptr, values)
        assert np.array_equal(fast, reference_segment_h_index(seg_ptr, values))
        scalar = [
            h_index(values[seg_ptr[s]:seg_ptr[s + 1]])
            for s in range(seg_ptr.size - 1)
        ]
        assert fast.tolist() == scalar

    def test_empty_segments_give_zero(self):
        seg_ptr = np.array([0, 0, 3, 3])
        values = np.array([2, 2, 2])
        assert segment_h_index(seg_ptr, values).tolist() == [0, 2, 0]

    def test_all_zero_values(self):
        seg_ptr = np.array([0, 4, 6])
        values = np.zeros(6, dtype=np.int64)
        assert segment_h_index(seg_ptr, values).tolist() == [0, 0]

    def test_no_segments(self):
        assert segment_h_index(np.array([0]), np.empty(0, dtype=np.int64)).size == 0
        assert (
            reference_segment_h_index(np.array([0]), np.empty(0, dtype=np.int64)).size
            == 0
        )

    def test_values_above_segment_length_clip(self):
        # h-index of a 3-element segment is at most 3, however huge the values.
        seg_ptr = np.array([0, 3])
        values = np.array([100, 100, 100])
        assert segment_h_index(seg_ptr, values).tolist() == [3]

    @pytest.mark.parametrize("seed", range(4))
    def test_int32_segment_pointers(self, seed):
        # An int32-narrowed graph hands over int32 seg_ptr, heads and bin
        # pointer; the search targets still need int64.
        rng = np.random.default_rng(100 + seed)
        seg_ptr, values = random_segments(rng, 50, 20, 25)
        narrow = seg_ptr.astype(np.int32)
        rows = np.repeat(np.arange(narrow.size - 1, dtype=np.int32),
                         np.diff(narrow))
        bin_ptr = narrow + np.arange(narrow.size, dtype=np.int32)
        expected = reference_segment_h_index(seg_ptr, values)
        for out in (segment_h_index(narrow, values),
                    segment_h_index(narrow, values, seg_rows=rows,
                                    bin_ptr=bin_ptr)):
            assert out.dtype == np.int64
            assert np.array_equal(out, expected)

    def test_values_all_above_their_segment_length(self):
        # Every value clips into its segment's last bin: h = length.
        rng = np.random.default_rng(3)
        lens = rng.integers(0, 12, size=40)
        seg_ptr = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens, out=seg_ptr[1:])
        values = np.repeat(lens, lens) + rng.integers(1, 50, size=int(lens.sum()))
        assert segment_h_index(seg_ptr, values).tolist() == lens.tolist()
        assert np.array_equal(
            segment_h_index(seg_ptr.astype(np.int32), values),
            reference_segment_h_index(seg_ptr, values),
        )

    def test_precomputed_rows_and_bins_match_adhoc(self):
        rng = np.random.default_rng(11)
        seg_ptr, values = random_segments(rng, 30, 12, 15)
        lens = np.diff(seg_ptr)
        seg_rows = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        bin_ptr = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens + 1, out=bin_ptr[1:])
        assert np.array_equal(
            segment_h_index(seg_ptr, values),
            segment_h_index(seg_ptr, values, seg_rows=seg_rows, bin_ptr=bin_ptr),
        )
