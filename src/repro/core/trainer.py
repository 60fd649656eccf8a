"""Training and validation loop for MSCN.

The paper trains with Adam on mini-batches of query featurizations,
minimizing the mean q-error of the *unnormalized* predictions (Section 3.2),
and tracks the mean q-error on a held-out validation split after every epoch
(Figure 6).  Mean-squared error on the normalized labels and the
geometric-mean q-error are available as alternative objectives (Section 4.8).

Both training and inference run over the ragged (CSR) layout: the per-element
MLPs touch only real set elements and pooling is a segment reduction, so no
FLOPs are spent on padding.  Both also run the one MSCN forward pass,
:func:`repro.core.model.forward`.  A training step runs it on a
length-bucketed mini-batch (see ``iterate_ragged_minibatches``), chains the
loss gradient through the label normalization, and hands the hand-derived
:func:`repro.core.model.backward` gradients to Adam, which updates the
parameter arrays in place.  Prediction runs it chunk by chunk on the model's
own layers, so it always sees the current weights: there is no second copy
of them to keep in step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.batching import RaggedDataset, iterate_ragged_minibatches
from repro.core.config import LossKind, MSCNConfig
from repro.core.model import MSCN, backward, forward
from repro.core.normalization import CardinalityNormalizer
from repro.nn.loss import geometric_q_error_loss, mse_loss, q_error_loss
from repro.nn.optim import Adam
from repro.utils.faults import fault_point
from repro.utils.rng import spawn_rng

__all__ = ["TrainingResult", "MSCNTrainer"]


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
        self.optimizer = Adam(dict(model.named_parameters()), learning_rate=config.learning_rate)
        self._shuffle_rng = spawn_rng(config.seed, "minibatch-shuffle")

    # ------------------------------------------------------------------
    # Loss
    # ------------------------------------------------------------------
    def _loss(self, predictions: np.ndarray, batch: RaggedDataset) -> tuple[float, np.ndarray]:
        """Training loss of a batch of normalized predictions, and its gradient.

        The gradient is with respect to the normalized ``(n, 1)``
        predictions.  Labels and cardinalities are stored as float64
        columns; casting them to the prediction dtype keeps the whole
        backward pass in the configured compute precision (a float64
        operand would silently promote every gradient of a float32 model).
        """
        dtype = predictions.dtype
        if self.config.loss is LossKind.MSE:
            loss, grad = mse_loss(predictions, batch.labels.astype(dtype))
            return float(loss), grad
        # Invert the label normalization: cardinality = exp(label * scale + min_log).
        scale = dtype.type(self.normalizer.scale)
        predicted = np.exp(predictions * scale + dtype.type(self.normalizer.min_log))
        loss_function = (
            geometric_q_error_loss
            if self.config.loss is LossKind.GEOMETRIC_Q_ERROR
            else q_error_loss
        )
        loss, grad = loss_function(predicted, batch.cardinalities.astype(dtype))
        return float(loss), grad * predicted * scale

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def train(
        self,
        train_set: RaggedDataset,
        train_cardinalities: np.ndarray,
        validation_set: RaggedDataset | None = None,
        validation_cardinalities: np.ndarray | None = None,
        epochs: int | None = None,
    ) -> TrainingResult:
        """Train for ``epochs`` passes over the training set.

        Validation data is optional; when present, the mean validation q-error
        is recorded after every epoch.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        train_cardinalities = np.asarray(train_cardinalities, dtype=np.float64)
        train_labels = self.normalizer.normalize(train_cardinalities)
        result = TrainingResult(epochs_run=0, training_seconds=0.0)
        start_time = time.perf_counter()
        layers = self.model.layers
        for _ in range(epochs):
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
                trace: dict = {}
                loss, grad = self._loss(forward(batch, layers, trace), batch)
                self.optimizer.step(backward(trace, layers, grad))
                epoch_losses.append(loss)
            result.train_loss_history.append(float(np.mean(epoch_losses)))
            result.epochs_run += 1
            if validation_set is not None and validation_cardinalities is not None:
                result.validation_q_error_history.append(
                    self.mean_q_error(validation_set, validation_cardinalities)
                )
        result.training_seconds = time.perf_counter() - start_time
        return result

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_normalized(
        self, dataset: RaggedDataset, batch_size: int | None = None
    ) -> np.ndarray:
        """Raw sigmoid outputs in [0, 1], one forward pass per chunk.

        The dataset is split into ``batch_size``-query chunks (by default
        ``config.batch_size``) at ``range(0, size, batch_size)``, run in
        order on the calling thread against the model's own layers.
        Chunking bounds memory, and because BLAS kernel selection depends on
        operand shape, chunk size 1 is bit-identical to one call per query.
        Each chunk first fires the ``engine.run`` fault point.  A call keeps
        no state outside its own frame, so threads may predict at once.

        Predictions are always returned as float64, whatever the model's
        compute dtype: downstream consumers (denormalization, q-error metrics,
        result caches) hold float64 cardinalities, and a float32 array leaking
        out would silently change their precision.
        """
        if batch_size is None:
            batch_size = self.config.batch_size
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        size = dataset.size
        if size == 0:
            return np.empty(0, dtype=np.float64)
        layers = self.model.layers
        outputs = []
        for start in range(0, size, batch_size):
            chunk = dataset.slice(start, start + batch_size)
            fault_point("engine.run", batch_size=chunk.size)
            outputs.append(forward(chunk, layers)[:, 0])
        return np.concatenate(outputs, dtype=np.float64)

    def predict(self, dataset: RaggedDataset, batch_size: int | None = None) -> np.ndarray:
        """Predict cardinalities for featurized queries (denormalized, >= 1)."""
        return self.normalizer.denormalize(self.predict_normalized(dataset, batch_size))

    def mean_q_error(
        self,
        dataset: RaggedDataset,
        cardinalities: np.ndarray,
    ) -> float:
        """Mean q-error of the current model on a labelled feature set."""
        from repro.evaluation.metrics import q_errors

        predictions = self.predict(dataset)
        cardinalities = np.asarray(cardinalities, dtype=np.float64)
        return float(q_errors(predictions, cardinalities).mean())
