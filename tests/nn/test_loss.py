"""Tests of the training objectives (q-error, MSE, geometric q-error)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.loss import geometric_q_error_loss, mse_loss, q_error_loss


def column(*values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def loss_value(loss_function, predictions, targets) -> float:
    return float(loss_function(predictions, targets)[0])


class TestQErrorLoss:
    def test_perfect_prediction_gives_one(self):
        cards = column(10.0, 500.0)
        assert loss_value(q_error_loss, cards, cards) == pytest.approx(1.0)

    def test_symmetry_of_over_and_under_estimation(self):
        true = column(100.0)
        over = loss_value(q_error_loss, column(1000.0), true)
        under = loss_value(q_error_loss, column(10.0), true)
        assert over == pytest.approx(under) == pytest.approx(10.0)

    def test_mean_over_batch(self):
        loss = loss_value(q_error_loss, column(10.0, 100.0), column(10.0, 50.0))
        assert loss == pytest.approx((1.0 + 2.0) / 2)

    def test_clamps_tiny_predictions(self):
        loss, grad = q_error_loss(column(0.0), column(5.0))
        assert loss == pytest.approx(5.0)
        # Below the clamp the prediction does not affect the loss.
        assert grad[0, 0] == 0.0

    def test_gradient_points_towards_truth(self):
        _, grad = q_error_loss(column(10.0), column(100.0))
        # Under-estimation: increasing the prediction reduces the loss.
        assert grad[0, 0] < 0

    @given(
        st.floats(1.0, 1e6),
        st.floats(1.0, 1e6),
    )
    @settings(max_examples=100, deadline=None)
    def test_q_error_at_least_one(self, prediction, truth):
        assert loss_value(q_error_loss, column(prediction), column(truth)) >= 1.0 - 1e-12


class TestGeometricQError:
    def test_log_of_q_error(self):
        loss = loss_value(geometric_q_error_loss, column(1000.0), column(10.0))
        assert loss == pytest.approx(np.log(100.0))

    def test_perfect_prediction_gives_zero(self):
        cards = column(42.0)
        assert loss_value(geometric_q_error_loss, cards, cards) == pytest.approx(0.0)

    def test_less_sensitive_to_outliers_than_mean_q_error(self):
        predictions = column(10.0, 1e6)
        truths = column(10.0, 10.0)
        mean_q = loss_value(q_error_loss, predictions, truths)
        geometric = loss_value(geometric_q_error_loss, predictions, truths)
        assert geometric < mean_q


class TestMSE:
    def test_zero_for_equal_inputs(self):
        values = column(0.3, 0.8)
        assert loss_value(mse_loss, values, values) == pytest.approx(0.0)

    def test_matches_numpy(self):
        predictions = column(0.1, 0.9)
        targets = column(0.2, 0.4)
        expected = ((predictions - targets) ** 2).mean()
        assert loss_value(mse_loss, predictions, targets) == pytest.approx(expected)

    def test_gradient_direction(self):
        _, grad = mse_loss(column(0.9), column(0.1))
        assert grad[0, 0] > 0


class TestGradients:
    @pytest.mark.parametrize("loss_function", [q_error_loss, geometric_q_error_loss, mse_loss])
    def test_gradient_matches_central_differences(self, loss_function):
        # Every prediction is clearly above or below its truth (off the max
        # kink) and above 1 (off the clip kink).
        predictions = column(3.0, 40.0, 700.0, 2.5)
        truths = column(9.0, 4.0, 100.0, 20.0)
        _, grad = loss_function(predictions, truths)
        epsilon = 1e-6
        for row in range(predictions.shape[0]):
            upper, lower = predictions.copy(), predictions.copy()
            upper[row] += epsilon
            lower[row] -= epsilon
            numeric = (
                loss_value(loss_function, upper, truths) - loss_value(loss_function, lower, truths)
            ) / (2 * epsilon)
            assert grad[row, 0] == pytest.approx(numeric, rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("loss_function", [q_error_loss, geometric_q_error_loss, mse_loss])
    def test_float32_inputs_stay_float32(self, loss_function):
        predictions = column(3.0, 40.0).astype(np.float32)
        truths = column(9.0, 4.0).astype(np.float32)
        loss, grad = loss_function(predictions, truths)
        assert loss.dtype == np.float32 and grad.dtype == np.float32

    @pytest.mark.parametrize("loss_function", [q_error_loss, geometric_q_error_loss, mse_loss])
    def test_float64_inputs_stay_float64(self, loss_function):
        loss, grad = loss_function(column(3.0, 40.0), column(9.0, 4.0))
        assert loss.dtype == np.float64 and grad.dtype == np.float64
        assert grad.shape == (2, 1)

    @pytest.mark.parametrize("loss_function", [q_error_loss, geometric_q_error_loss])
    def test_no_gradient_below_the_clip(self, loss_function):
        _, grad = loss_function(column(0.25, 0.9, 30.0), column(5.0, 5.0, 5.0))
        assert grad[0, 0] == 0.0 and grad[1, 0] == 0.0
        assert grad[2, 0] > 0.0

    @pytest.mark.parametrize("loss_function", [q_error_loss, geometric_q_error_loss])
    def test_symmetric_in_prediction_and_truth(self, loss_function):
        predictions = column(3.0, 40.0, 700.0)
        truths = column(9.0, 4.0, 700.0)
        assert loss_value(loss_function, predictions, truths) == pytest.approx(
            loss_value(loss_function, truths, predictions)
        )

    def test_mse_gradient_is_twice_the_mean_residual(self):
        predictions = column(0.1, 0.9, 0.5, 0.25)
        targets = column(0.2, 0.4, 0.5, 1.0)
        _, grad = mse_loss(predictions, targets)
        np.testing.assert_allclose(grad, 2.0 * (predictions - targets) / 4, rtol=1e-15)

    def test_geometric_gradient_is_plus_or_minus_one_over_n_prediction(self):
        """d/dp log(p / t) = 1/p above the truth, d/dp log(t / p) = -1/p below."""
        predictions = column(50.0, 2.0)
        _, grad = geometric_q_error_loss(predictions, column(10.0, 10.0))
        np.testing.assert_allclose(grad[:, 0], [1 / (2 * 50.0), -1 / (2 * 2.0)], rtol=1e-14)
