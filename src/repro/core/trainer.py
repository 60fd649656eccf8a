"""Training and validation loop for MSCN.

The paper trains with Adam on mini-batches of query featurizations,
minimizing the mean q-error of the *unnormalized* predictions (Section 3.2),
and tracks the mean q-error on a held-out validation split after every epoch
(Figure 6).  Mean-squared error on the normalized labels and the
geometric-mean q-error are available as alternative objectives (Section 4.8).

Both training and inference run over the ragged (CSR) layout: the per-element
MLPs touch only real set elements and pooling is a segment reduction, so no
FLOPs are spent on padding.  Training runs ``MSCN.forward_ragged`` on
length-bucketed mini-batches (see ``iterate_ragged_minibatches``); inference
goes through the graph-free fused :class:`~repro.core.inference.InferenceEngine`,
which is bit-identical to ``forward_ragged`` in float64.  The engine's weight
snapshot is refreshed only before the first prediction after training, so a
quantized (``float16``/``int8``) tier is re-quantized once per weight change
rather than once per prediction.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.batching import (
    RaggedDataset,
    as_ragged_dataset,
    iterate_ragged_minibatches,
)
from repro.core.config import LossKind, MSCNConfig
from repro.core.featurization import FeaturizedQuery
from repro.core.inference import InferenceEngine
from repro.core.model import MSCN
from repro.core.normalization import CardinalityNormalizer
from repro.nn.loss import geometric_q_error_loss, mse_loss, q_error_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng

__all__ = ["TrainingResult", "MSCNTrainer"]

#: Any of the feature containers the training / prediction APIs accept.
FeatureInput = "RaggedDataset | Sequence[FeaturizedQuery]"


@dataclass
class TrainingResult:
    """Outcome of a training run.

    ``validation_q_error_history`` holds the mean validation q-error after
    each epoch (the series plotted in Figure 6); ``train_loss_history`` holds
    the mean training loss per epoch.
    """

    epochs_run: int
    training_seconds: float
    train_loss_history: list[float] = field(default_factory=list)
    validation_q_error_history: list[float] = field(default_factory=list)

    @property
    def final_validation_q_error(self) -> float:
        if not self.validation_q_error_history:
            return float("nan")
        return self.validation_q_error_history[-1]


class MSCNTrainer:
    """Runs the training loop and produces cardinality predictions."""

    def __init__(
        self,
        model: MSCN,
        normalizer: CardinalityNormalizer,
        config: MSCNConfig,
    ):
        self.model = model
        self.normalizer = normalizer
        self.config = config
        self.optimizer = Adam(model.parameters(), learning_rate=config.learning_rate)
        self._shuffle_rng = spawn_rng(config.seed, "minibatch-shuffle")
        self._engine: InferenceEngine | None = None
        self._engine_lock = threading.Lock()
        # Set when training may have changed the weights the engine's
        # snapshot was taken from; the next prediction refreshes it.
        self._stale = False

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def _loss(self, predictions: Tensor, batch: RaggedDataset) -> Tensor:
        """Training loss of a batch of normalized predictions.

        Labels and cardinalities are stored as float64 columns; casting them
        to the prediction dtype here keeps the whole backward pass in the
        configured compute precision (a float64 operand would silently
        promote every gradient of a float32 model).
        """
        dtype = predictions.data.dtype
        if self.config.loss is LossKind.MSE:
            return mse_loss(predictions, Tensor(batch.labels, dtype=dtype))
        predicted_cardinalities = self._denormalize_tensor(predictions)
        true_cardinalities = Tensor(batch.cardinalities, dtype=dtype)
        if self.config.loss is LossKind.GEOMETRIC_Q_ERROR:
            return geometric_q_error_loss(predicted_cardinalities, true_cardinalities)
        return q_error_loss(predicted_cardinalities, true_cardinalities)

    def _denormalize_tensor(self, predictions: Tensor) -> Tensor:
        """Invert the label normalization inside the autograd graph."""
        return (predictions * self.normalizer.scale + self.normalizer.min_log).exp()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        train_features: FeatureInput,
        train_cardinalities: np.ndarray,
        validation_features: "FeatureInput | None" = None,
        validation_cardinalities: np.ndarray | None = None,
        epochs: int | None = None,
    ) -> TrainingResult:
        """Train for ``epochs`` passes over the training set.

        Both feature arguments accept a :class:`RaggedDataset` or a sequence
        of per-query featurizations; everything is converted to the ragged
        layout once up front, so no per-epoch collation happens inside the
        epoch loop.

        Validation data is optional; when present, the mean validation q-error
        is recorded after every epoch.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        train_set = as_ragged_dataset(train_features)
        validation_set = (
            as_ragged_dataset(validation_features)
            if validation_features is not None
            else None
        )
        train_cardinalities = np.asarray(train_cardinalities, dtype=np.float64)
        train_labels = self.normalizer.normalize(train_cardinalities)
        result = TrainingResult(epochs_run=0, training_seconds=0.0)
        start_time = time.perf_counter()
        self.model.train()
        for _ in range(epochs):
            self._stale = True
            epoch_losses: list[float] = []
            shuffle_rng = self._shuffle_rng if self.config.shuffle else None
            for batch in iterate_ragged_minibatches(
                train_set,
                train_labels,
                train_cardinalities,
                self.config.batch_size,
                rng=shuffle_rng,
                bucket_by_length=self.config.bucket_by_length,
            ):
                self.optimizer.zero_grad()
                predictions = self.model.forward_ragged(batch)
                loss = self._loss(predictions, batch)
                loss.backward()
                self.optimizer.step()
                epoch_losses.append(loss.item())
            result.train_loss_history.append(float(np.mean(epoch_losses)))
            result.epochs_run += 1
            if validation_set is not None and validation_cardinalities is not None:
                result.validation_q_error_history.append(
                    self.mean_q_error(validation_set, validation_cardinalities)
                )
                # mean_q_error() predicts in eval() mode; later epochs must
                # train with training-mode behaviour (e.g. active dropout).
                self.model.train()
        result.training_seconds = time.perf_counter() - start_time
        self.model.eval()
        return result

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def engine(self) -> InferenceEngine:
        """The cached fused inference engine, built on first use.

        Sized and precision-configured by the estimator configuration; with
        ``engine_replicas=1`` (the default) every chunk runs inline on the
        calling thread and no worker threads are created.  Predictions
        refresh its snapshot after training; callers that change the weights
        by other means call ``engine().refresh()`` themselves.
        """
        with self._engine_lock:
            if self._engine is None:
                self._engine = InferenceEngine(
                    self.model,
                    dtype=self.config.np_dtype,
                    precision=self.config.inference_precision,
                    replicas=self.config.engine_replicas,
                )
                self._stale = False  # a new engine captures the current weights
            return self._engine

    def predict_normalized(
        self, features: FeatureInput, batch_size: int | None = None
    ) -> np.ndarray:
        """Raw sigmoid outputs in [0, 1] from the fused engine, in chunks.

        Chunks hold ``batch_size`` queries; by default
        ``config.inference_chunk_size`` when set, else ``config.batch_size``.

        Predictions are always returned as float64, whatever the engine's
        compute dtype: downstream consumers (denormalization, q-error metrics,
        result caches) hold float64 cardinalities, and a float32 array leaking
        out of the engine would silently change their precision.
        """
        if batch_size is None:
            batch_size = (
                self.config.inference_chunk_size
                if self.config.inference_chunk_size is not None
                else self.config.batch_size
            )
        if not isinstance(features, RaggedDataset) and not features:
            return np.empty(0, dtype=np.float64)
        dataset = as_ragged_dataset(features)
        if dataset.size == 0:
            return np.empty(0, dtype=np.float64)
        self.model.eval()
        engine = self.engine()
        if self._stale:
            # Cleared only after the refresh, so a concurrent prediction
            # cannot skip it and run on the pre-training snapshot.
            engine.refresh()
            self._stale = False
        return np.asarray(engine.run(dataset, chunk_size=batch_size), dtype=np.float64)

    def predict(self, features: FeatureInput, batch_size: int | None = None) -> np.ndarray:
        """Predict cardinalities for featurized queries (denormalized, >= 1)."""
        normalized = self.predict_normalized(features, batch_size=batch_size)
        if normalized.size == 0:
            return np.empty(0, dtype=np.float64)
        return self.normalizer.denormalize(normalized)

    def mean_q_error(
        self,
        features: FeatureInput,
        cardinalities: np.ndarray,
    ) -> float:
        """Mean q-error of the current model on a labelled feature set."""
        from repro.evaluation.metrics import q_errors

        predictions = self.predict(features)
        cardinalities = np.asarray(cardinalities, dtype=np.float64)
        return float(q_errors(predictions, cardinalities).mean())
