"""Tests of the set-pooling primitives and activation aliases."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.functional import relu, segment_mean, sigmoid
from repro.nn.tensor import Tensor


class TestSegmentMean:
    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_manual_average(self, lengths, width, seed):
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        values = rng.normal(size=(offsets[-1], width))
        result = segment_mean(Tensor(values), offsets).numpy()
        for segment in range(len(lengths)):
            real = values[offsets[segment] : offsets[segment + 1]]
            expected = real.mean(axis=0) if len(real) else np.zeros(width)
            np.testing.assert_allclose(result[segment], expected, atol=1e-10)


class TestActivationAliases:
    def test_relu_matches_method(self):
        values = np.array([-1.0, 2.0])
        np.testing.assert_allclose(relu(Tensor(values)).numpy(), [0.0, 2.0])

    def test_sigmoid_matches_method(self):
        values = np.array([0.0])
        np.testing.assert_allclose(sigmoid(Tensor(values)).numpy(), [0.5])
