"""The Adam optimizer (Kingma & Ba, 2014), the paper's training optimizer."""

from __future__ import annotations

from typing import Mapping

import numpy as np

__all__ = ["Adam", "BETA1", "BETA2", "EPSILON"]

#: Exponential decay rates of the first and second moment estimates.
BETA1 = 0.9
BETA2 = 0.999
#: Added to the root of the second moment to keep the step finite.
EPSILON = 1e-8


class Adam:
    """Adam over a dict of named parameter arrays.

    :meth:`step` takes a gradient dict keyed like ``parameters`` and updates
    the parameter arrays strictly in place: the buffers are never rebound,
    so references held elsewhere (the model's layers, which prediction
    reads) stay valid, and a step allocates no new parameter arrays.  Parameters
    missing from the gradient dict are left unchanged.
    """

    def __init__(self, parameters: Mapping[str, np.ndarray], learning_rate: float = 0.001) -> None:
        if not parameters:
            raise ValueError("optimizer received an empty parameter dict")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = dict(parameters)
        self.learning_rate = learning_rate
        self._step_count = 0
        self._first_moment = {name: np.zeros_like(p) for name, p in self.parameters.items()}
        self._second_moment = {name: np.zeros_like(p) for name, p in self.parameters.items()}
        # Per-parameter scratch for the update term, so a step allocates
        # nothing and the parameter buffers are updated strictly in place.
        self._scratch = {name: np.empty_like(p) for name, p in self.parameters.items()}

    def step(self, gradients: Mapping[str, np.ndarray]) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - BETA1**self._step_count
        bias_correction2 = 1.0 - BETA2**self._step_count
        for name, grad in gradients.items():
            parameter = self.parameters[name]
            first = self._first_moment[name]
            second = self._second_moment[name]
            scratch = self._scratch[name]
            first *= BETA1
            first += (1.0 - BETA1) * grad
            second *= BETA2
            second += (1.0 - BETA2) * grad * grad
            # update = lr * (first / bc1) / (sqrt(second / bc2) + eps),
            # computed entirely in the scratch buffer.
            np.divide(second, bias_correction2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPSILON
            np.divide(first, scratch, out=scratch)
            scratch *= self.learning_rate / bias_correction1
            np.subtract(parameter, scratch, out=parameter)
