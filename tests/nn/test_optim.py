"""Tests of the Adam optimizer: convergence and in-place updates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.optim import BETA1, BETA2, EPSILON, Adam


def quadratic_gradient(parameter: np.ndarray) -> np.ndarray:
    """Gradient of (x - 3)^2 summed; minimized at x = 3."""
    return 2.0 * (parameter - 3.0)


def minimize_quadratic(parameter: np.ndarray, optimizer: Adam, steps: int) -> None:
    for _ in range(steps):
        optimizer.step({"x": quadratic_gradient(parameter)})


class TestValidation:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam({})

    def test_learning_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            Adam({"x": np.zeros(1)}, learning_rate=-1.0)
        with pytest.raises(ValueError):
            Adam({"x": np.zeros(1)}, learning_rate=0.0)


class TestConvergence:
    def test_minimizes_quadratic(self):
        parameter = np.array([10.0, -4.0])
        minimize_quadratic(parameter, Adam({"x": parameter}, learning_rate=0.3), 200)
        np.testing.assert_allclose(parameter, [3.0, 3.0], atol=1e-2)

    def test_adam_fits_linear_regression(self):
        rng = np.random.default_rng(5)
        true_weight = np.array([[2.0], [-1.5], [0.5]])
        inputs = rng.normal(size=(200, 3))
        targets = inputs @ true_weight + 0.7
        weight = rng.normal(size=(3, 1))
        bias = np.zeros(1)
        optimizer = Adam({"weight": weight, "bias": bias}, learning_rate=0.05)
        for _ in range(300):
            # d/dW and d/db of the mean squared error.
            residual = (inputs @ weight + bias - targets) * (2.0 / len(inputs))
            optimizer.step({"weight": inputs.T @ residual, "bias": residual.sum(axis=0)})
        np.testing.assert_allclose(weight, true_weight, atol=0.05)
        np.testing.assert_allclose(bias, [0.7], atol=0.05)

    def test_step_skips_parameters_without_gradients(self):
        used = np.array([1.0])
        unused = np.array([5.0])
        optimizer = Adam({"used": used, "unused": unused}, learning_rate=0.1)
        optimizer.step({"used": 2.0 * used})
        np.testing.assert_array_equal(unused, [5.0])
        assert used[0] != 1.0


class TestInPlaceUpdates:
    """Steps update the parameter buffers strictly in place, so references
    held elsewhere (the inference engine's snapshot) never go stale."""

    def test_parameter_buffer_identity_is_stable_across_steps(self):
        parameter = np.array([10.0, -4.0])
        values_before = parameter.copy()
        optimizer = Adam({"x": parameter}, learning_rate=0.3)
        minimize_quadratic(parameter, optimizer, 5)
        assert optimizer.parameters["x"] is parameter, "step() rebound the parameter array"
        assert not np.array_equal(parameter, values_before), "step() did not update values"

    def test_float32_state_stays_float32(self):
        parameter = np.array([10.0, -4.0], dtype=np.float32)
        optimizer = Adam({"x": parameter}, learning_rate=0.3)
        minimize_quadratic(parameter, optimizer, 5)
        assert parameter.dtype == np.float32
        assert optimizer._first_moment["x"].dtype == np.float32
        assert optimizer._second_moment["x"].dtype == np.float32


def textbook_adam(parameter, gradients, learning_rate):
    """Adam as printed in Kingma & Ba (2014), Algorithm 1, in float64."""
    parameter = parameter.astype(np.float64)
    first = np.zeros_like(parameter)
    second = np.zeros_like(parameter)
    for step, grad in enumerate(gradients, start=1):
        first = BETA1 * first + (1 - BETA1) * grad
        second = BETA2 * second + (1 - BETA2) * grad**2
        first_hat = first / (1 - BETA1**step)
        second_hat = second / (1 - BETA2**step)
        parameter = parameter - learning_rate * first_hat / (np.sqrt(second_hat) + EPSILON)
    return parameter


class TestUpdateRule:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_the_textbook_update(self, dtype, rtol):
        rng = np.random.default_rng(11)
        start = rng.normal(size=(3, 4))
        gradients = [rng.normal(size=(3, 4)) for _ in range(25)]
        parameter = start.astype(dtype)
        optimizer = Adam({"w": parameter}, learning_rate=0.01)
        for grad in gradients:
            optimizer.step({"w": grad.astype(dtype)})
        expected = textbook_adam(start.astype(dtype), [g.astype(dtype) for g in gradients], 0.01)
        np.testing.assert_allclose(parameter, expected, rtol=rtol)

    def test_first_step_moves_each_coordinate_by_the_learning_rate(self):
        """After one step the bias-corrected moments are g and g**2, so every
        coordinate moves by about ``lr`` against its gradient's sign."""
        parameter = np.zeros(4)
        Adam({"x": parameter}, learning_rate=0.1).step({"x": np.array([3.0, -0.5, 1e-3, -200.0])})
        np.testing.assert_allclose(parameter, [-0.1, 0.1, -0.1, 0.1], rtol=1e-4)

    def test_zero_gradient_leaves_the_parameter_in_place(self):
        parameter = np.array([1.5, -2.0])
        Adam({"x": parameter}, learning_rate=0.1).step({"x": np.zeros(2)})
        np.testing.assert_array_equal(parameter, [1.5, -2.0])

    def test_gradient_for_an_unknown_parameter_raises(self):
        optimizer = Adam({"x": np.zeros(2)})
        with pytest.raises(KeyError):
            optimizer.step({"y": np.ones(2)})
