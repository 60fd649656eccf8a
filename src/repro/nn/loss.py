"""Loss functions for cardinality estimation (paper Sections 3.2 and 4.8).

The paper trains MSCN to minimize the *mean q-error*: the factor between the
estimated and the true cardinality, ``max(est / true, true / est)``.  Two
alternatives from Section 4.8 are also provided: mean squared error on the
normalized labels and the geometric-mean q-error (optimized as the mean of
``log`` q-errors, which is monotonically equivalent and numerically better
behaved).

Every loss takes two same-shaped arrays and returns ``(loss, gradient)``:
the scalar mean loss and its gradient with respect to the first argument.
Both are computed in the arguments' dtype.
"""

from __future__ import annotations

import numpy as np

__all__ = ["q_error_loss", "mse_loss", "geometric_q_error_loss"]

# Cardinalities are at least one tuple when used inside a q-error; predictions
# are clamped away from zero to keep the ratio finite.
_MIN_CARDINALITY = 1.0


def _mean_factor(values: np.ndarray) -> np.generic:
    """``1 / n`` in the values' dtype (a float64 scalar would promote)."""
    return values.dtype.type(1.0 / values.size)


def _q_errors(predicted: np.ndarray, true: np.ndarray):
    """Per-query q-errors, and the map from dloss/dq to dloss/dpredicted."""
    clipped = np.clip(predicted, _MIN_CARDINALITY, None)
    true = np.clip(true, _MIN_CARDINALITY, None)
    over, under = clipped / true, true / clipped

    def gradient(grad: np.ndarray) -> np.ndarray:
        # Through the larger ratio, then the clip (no gradient below it).
        over_wins = over >= under
        grad_over = grad * over_wins
        grad_under = grad * ~over_wins
        through_max = grad_over / true + (-grad_under * true / clipped**2)
        return through_max * (predicted >= _MIN_CARDINALITY)

    return np.maximum(over, under), gradient


def q_error_loss(
    predicted_cardinalities: np.ndarray, true_cardinalities: np.ndarray
) -> tuple[np.generic, np.ndarray]:
    """Mean q-error between predicted and true cardinalities.

    Both arguments hold strictly positive cardinalities (not normalized
    labels).  The q-error of a perfect estimate is 1, so the minimum of this
    loss is 1.
    """
    q_errors, gradient = _q_errors(predicted_cardinalities, true_cardinalities)
    factor = _mean_factor(q_errors)
    return q_errors.sum() * factor, gradient(np.full_like(q_errors, factor))


def geometric_q_error_loss(
    predicted_cardinalities: np.ndarray, true_cardinalities: np.ndarray
) -> tuple[np.generic, np.ndarray]:
    """Mean logarithmic q-error.

    Minimizing the mean of ``log(q)`` is equivalent to minimizing the
    geometric mean of the q-errors; the paper reports this variant puts less
    emphasis on heavy outliers (Section 4.8).
    """
    q_errors, gradient = _q_errors(predicted_cardinalities, true_cardinalities)
    factor = _mean_factor(q_errors)
    loss = np.log(q_errors).sum() * factor
    return loss, gradient(np.full_like(q_errors, factor) / q_errors)


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[np.generic, np.ndarray]:
    """Mean squared error; used on *normalized* labels in Section 4.8."""
    difference = predictions - targets
    factor = _mean_factor(difference)
    loss = (difference * difference).sum() * factor
    half = factor * difference
    return loss, half + half
