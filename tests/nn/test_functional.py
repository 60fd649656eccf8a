"""Tests of the set-pooling kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import segment_sum_array


class TestSegmentSumArray:
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_manual_sum(self, lengths, width, seed):
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.normal(size=(offsets[-1], width))
        result = segment_sum_array(values, offsets, lengths)
        for segment in range(len(lengths)):
            real = values[offsets[segment] : offsets[segment + 1]]
            np.testing.assert_allclose(result[segment], real.sum(axis=0), atol=1e-10)

    def test_out_buffer_is_overwritten(self):
        values = np.arange(10, dtype=np.float64).reshape(5, 2)
        offsets = np.array([0, 2, 2, 5])
        out = np.full((3, 2), 99.0)
        result = segment_sum_array(values, offsets, np.diff(offsets), out=out)
        assert result is out
        np.testing.assert_array_equal(out, [[0 + 2, 1 + 3], [0.0, 0.0], [4 + 6 + 8, 5 + 7 + 9]])

    @given(
        st.lists(st.integers(0, 6), min_size=2, max_size=5),
        st.integers(0),
    )
    @settings(max_examples=30, deadline=None)
    def test_a_segment_sums_the_same_alone_and_in_a_batch(self, lengths, seed):
        """Per-segment left-associative accumulation: a set's pooled vector
        does not depend on the sets batched next to it, bit for bit."""
        rng = np.random.default_rng(seed)
        lengths = np.array(lengths)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.normal(size=(offsets[-1], 3))
        batched = segment_sum_array(values, offsets, lengths)
        for segment in range(len(lengths)):
            rows = values[offsets[segment] : offsets[segment + 1]]
            alone = segment_sum_array(rows, np.array([0, len(rows)]), lengths[segment : segment + 1])
            np.testing.assert_array_equal(batched[segment], alone[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_input_dtype(self, dtype):
        values = np.ones((4, 2), dtype=dtype)
        offsets = np.array([0, 1, 4])
        result = segment_sum_array(values, offsets, np.diff(offsets))
        assert result.dtype == dtype
        np.testing.assert_array_equal(result, [[1.0, 1.0], [3.0, 3.0]])

    def test_all_empty_segments_give_zero_rows(self):
        offsets = np.zeros(4, dtype=np.int64)
        out = np.full((3, 2), 7.0)
        result = segment_sum_array(np.empty((0, 2)), offsets, np.diff(offsets), out=out)
        assert result is out
        np.testing.assert_array_equal(result, np.zeros((3, 2)))

    def test_no_segments_gives_an_empty_result(self):
        result = segment_sum_array(np.empty((0, 5)), np.array([0]), np.empty(0, dtype=np.int64))
        assert result.shape == (0, 5)
