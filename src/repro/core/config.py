"""Hyperparameters and featurization variants of MSCN.

The default values are the paper's best configuration from the grid search in
Section 4.6: 100 epochs, batch size 1024, 256 hidden units, learning rate
0.001, trained with the mean q-error loss, using 1000 materialized samples
per table and bitmap features.

``dtype`` selects the compute precision of the whole pipeline — featurization
lookup tables, datasets, model weights, optimizer state and the fused
inference engine.  The default is ``float32``: serving accuracy is unaffected
(the model's own approximation error dwarfs single precision) while matmuls
move half the memory.  Use ``float64`` for bit-exact comparisons (e.g. of the
fused inference engine against the autograd forward pass).

Three knobs configure the serving-side inference tier on top of the training
dtype: ``inference_precision`` selects the engine's weight tier (``None``
inherits ``dtype``; ``float16``/``int8`` serve quantized weight snapshots
with float32 compute), ``engine_replicas`` is the number of worker threads
the :class:`~repro.core.inference.InferenceEngine` spreads the chunks of a
large batch over, and ``inference_chunk_size`` fixes the queries-per-chunk
of ``estimate_many`` (``None`` falls back to ``batch_size``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["FeaturizationVariant", "LossKind", "MSCNConfig"]

_SUPPORTED_DTYPES = ("float32", "float64")
_SUPPORTED_PRECISIONS = ("float32", "float64", "float16", "int8")


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
    shuffle: bool = True
    dtype: str = "float32"
    bucket_by_length: bool = True
    inference_precision: str | None = None
    engine_replicas: int = 1
    inference_chunk_size: int | None = None

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
        canonical = np.dtype(self.dtype).name
        if canonical not in _SUPPORTED_DTYPES:
            raise ValueError(f"dtype must be one of {_SUPPORTED_DTYPES}, got {self.dtype!r}")
        object.__setattr__(self, "dtype", canonical)
        if self.inference_precision is not None:
            try:
                precision = np.dtype(self.inference_precision).name
            except TypeError:
                precision = str(self.inference_precision)
            if precision not in _SUPPORTED_PRECISIONS:
                raise ValueError(
                    f"inference_precision must be one of {_SUPPORTED_PRECISIONS} "
                    f"(or None to inherit dtype), got {self.inference_precision!r}"
                )
            object.__setattr__(self, "inference_precision", precision)
        if self.engine_replicas < 1:
            raise ValueError("engine_replicas must be >= 1")
        if self.inference_chunk_size is not None and self.inference_chunk_size < 1:
            raise ValueError(
                "inference_chunk_size must be >= 1 (the number of queries per "
                "fused inference chunk), or None to fall back to batch_size"
            )
        # Accept plain strings for convenience.
        if not isinstance(self.loss, LossKind):
            object.__setattr__(self, "loss", LossKind(self.loss))
        if not isinstance(self.variant, FeaturizationVariant):
            object.__setattr__(self, "variant", FeaturizationVariant(self.variant))

    def replace(self, **overrides) -> "MSCNConfig":
        """Return a copy of this configuration with fields replaced."""
        from dataclasses import replace as dataclass_replace

        return dataclass_replace(self, **overrides)
