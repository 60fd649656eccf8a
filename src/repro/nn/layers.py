"""The affine layer MSCN's MLPs are built from (paper Section 3.2).

A :class:`Linear` layer holds its parameters as plain numpy arrays.  The
MSCN kernel (:mod:`repro.core.model`) reads them in its forward pass, and
:class:`~repro.nn.optim.Adam` updates them in place, so any reference to a
parameter buffer stays valid across training steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Linear"]


class Linear:
    """The parameters of an affine map ``y = x W + b``; ``W`` is ``(in, out)``.

    ``initializer`` is ``"kaiming"`` (He uniform, suited to ReLU hidden
    layers) or ``"xavier"`` (Glorot uniform, suited to the sigmoid output).
    The bias starts at zero.  Both arrays are created in float64.
    """

    __slots__ = ("weight", "bias")

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        initializer: str = "kaiming",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        if initializer == "kaiming":
            limit = np.sqrt(6.0 / in_features)
        elif initializer == "xavier":
            limit = np.sqrt(6.0 / (in_features + out_features))
        else:
            raise ValueError(f"unknown initializer {initializer!r}")
        self.weight = rng.uniform(-limit, limit, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
