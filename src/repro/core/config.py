"""Hyperparameters and featurization variants of MSCN.

The default values are the paper's best configuration from the grid search in
Section 4.6: 100 epochs, batch size 1024, 256 hidden units, learning rate
0.001, trained with the mean q-error loss, using 1000 materialized samples
per table and bitmap features.

``dtype`` selects the compute precision of the whole pipeline — featurization
lookup tables, datasets, model weights, optimizer state and prediction.
The default is ``float32``: serving accuracy is unaffected
(the model's own approximation error dwarfs single precision) while matmuls
move half the memory.  Use ``float64`` for comparisons against
hand-computed references, such as the finite-difference gradient check.
It is the only precision setting: prediction computes in it too.
Predictions run in chunks of ``batch_size`` queries on the calling thread.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["FeaturizationVariant", "LossKind", "MSCNConfig"]

_SUPPORTED_DTYPES = ("float32", "float64")


class FeaturizationVariant(str, enum.Enum):
    """Which sampling information is attached to each table feature vector.

    Corresponds to the three model variants of Figure 4:

    * ``NO_SAMPLES`` — pure query features (one-hot table id only),
    * ``NUM_SAMPLES`` — one-hot table id plus the normalized number of
      qualifying materialized samples,
    * ``BITMAPS`` — one-hot table id plus the full qualifying-sample bitmap.
    """

    NO_SAMPLES = "no_samples"
    NUM_SAMPLES = "num_samples"
    BITMAPS = "bitmaps"


class LossKind(str, enum.Enum):
    """Training objectives explored in Section 4.8."""

    Q_ERROR = "q_error"
    MSE = "mse"
    GEOMETRIC_Q_ERROR = "geometric_q_error"


@dataclass(frozen=True)
class MSCNConfig:
    """Complete configuration of an MSCN estimator."""

    hidden_units: int = 256
    epochs: int = 100
    batch_size: int = 1024
    learning_rate: float = 1e-3
    loss: LossKind = LossKind.Q_ERROR
    variant: FeaturizationVariant = FeaturizationVariant.BITMAPS
    num_samples: int = 1000
    validation_fraction: float = 0.1
    seed: int = 42
    dtype: str = "float32"

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype all pipeline stages compute in."""
        return np.dtype(self.dtype)

    def __post_init__(self) -> None:
        if self.hidden_units <= 0:
            raise ValueError("hidden_units must be positive")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.num_samples <= 0:
            raise ValueError("num_samples must be positive")
        # Accept numpy dtypes / aliases for convenience, but pin the stored
        # value to the canonical string so configs stay JSON-serializable.
        # ``None`` is rejected, not read as numpy's float64 default.
        try:
            canonical = None if self.dtype is None else np.dtype(self.dtype).name
        except TypeError:
            canonical = None
        if canonical not in _SUPPORTED_DTYPES:
            raise ValueError(f"dtype must be one of {_SUPPORTED_DTYPES}, got {self.dtype!r}")
        object.__setattr__(self, "dtype", canonical)
        # Accept plain strings for convenience.
        if not isinstance(self.loss, LossKind):
            object.__setattr__(self, "loss", LossKind(self.loss))
        if not isinstance(self.variant, FeaturizationVariant):
            object.__setattr__(self, "variant", FeaturizationVariant(self.variant))

    def replace(self, **overrides) -> "MSCNConfig":
        """Return a copy of this configuration with fields replaced."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **overrides)
