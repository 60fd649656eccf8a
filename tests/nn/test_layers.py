"""Tests of the affine layer's construction and initialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Linear


def make_rng():
    return np.random.default_rng(3)


class TestLinear:
    def test_parameter_shapes(self):
        layer = Linear(4, 3, make_rng())
        assert layer.weight.shape == (4, 3)
        assert layer.bias.shape == (3,)

    def test_rejects_non_positive_dimensions(self):
        with pytest.raises(ValueError):
            Linear(0, 3, make_rng())

    def test_unknown_initializer(self):
        with pytest.raises(ValueError):
            Linear(2, 2, make_rng(), initializer="bogus")

    def test_bias_starts_at_zero(self):
        layer = Linear(4, 3, make_rng())
        np.testing.assert_array_equal(layer.bias, np.zeros(3))

    @pytest.mark.parametrize(
        "initializer, limit",
        [("kaiming", np.sqrt(6.0 / 40)), ("xavier", np.sqrt(6.0 / (40 + 30)))],
    )
    def test_uniform_initialization_bounds(self, initializer, limit):
        weight = Linear(40, 30, make_rng(), initializer=initializer).weight
        assert np.abs(weight).max() <= limit
        assert np.abs(weight).max() > 0.9 * limit

    def test_rejects_non_positive_output_width(self):
        with pytest.raises(ValueError):
            Linear(3, 0, make_rng())

    def test_initialization_is_reproducible_from_the_seed(self):
        first = Linear(5, 4, make_rng())
        second = Linear(5, 4, make_rng())
        np.testing.assert_array_equal(first.weight, second.weight)

    def test_parameters_are_created_in_float64(self):
        layer = Linear(5, 4, make_rng(), initializer="xavier")
        assert layer.weight.dtype == np.float64 and layer.bias.dtype == np.float64
