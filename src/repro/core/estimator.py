"""The public MSCN estimator façade.

:class:`MSCNEstimator` wires the whole pipeline of Section 3 together:

1. derive one-hot vocabularies and value bounds from the database snapshot,
2. materialize base-table samples (shared with the sampling baselines),
3. featurize the labelled training queries,
4. fit the cardinality normalizer on the training labels,
5. train the MSCN model,
6. answer :meth:`estimate` calls for unseen queries by featurizing them (which
   includes probing the materialized samples at estimation time) and running
   the model's forward pass on them (:meth:`MSCNTrainer.predict_normalized`).

The estimator also reports its serialized model size (paper Section 4.7) and
can be persisted to disk and reloaded against the same database snapshot.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batching import RaggedDataset
from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import QueryFeaturizer
from repro.core.model import MSCN
from repro.core.normalization import CardinalityNormalizer, ValueNormalizer
from repro.core.trainer import MSCNTrainer, TrainingResult
from repro.db.query import Query
from repro.db.sampling import MaterializedSamples
from repro.estimators.base import subplan_map
from repro.db.table import Database
from repro.nn.serialization import load_state_dict, save_state_dict, state_dict_num_bytes
from repro.utils.rng import spawn_rng
from repro.workload.generator import LabelledQuery

__all__ = ["MSCNEstimator", "PredictionTiming"]


@dataclass(frozen=True)
class PredictionTiming:
    """Latency breakdown of a batch of estimates (Section 4.7).

    ``bitmap_cache_hits`` counts sample-bitmap probes served from the shared
    bitmap cache during featurization (0 for the ``no_samples`` variant);
    repeated serving traffic with overlapping predicate sets drives it up.
    """

    num_queries: int
    featurization_seconds: float
    inference_seconds: float
    bitmap_cache_hits: int = 0

    @property
    def total_seconds(self) -> float:
        return self.featurization_seconds + self.inference_seconds

    @property
    def milliseconds_per_query(self) -> float:
        if self.num_queries == 0:
            return 0.0
        return 1000.0 * self.total_seconds / self.num_queries


class MSCNEstimator:
    """Learned cardinality estimator (the paper's MSCN)."""

    name = "MSCN"

    def __init__(self, database: Database, config: MSCNConfig | None = None,
                 samples: MaterializedSamples | None = None):
        self.database = database
        self.config = config if config is not None else MSCNConfig()
        self.encoding = SchemaEncoding.from_schema(database.schema)
        self.value_normalizer = ValueNormalizer.from_database(database)
        if self.config.variant is FeaturizationVariant.NO_SAMPLES:
            self.samples = samples
        else:
            self.samples = (
                samples
                if samples is not None
                else MaterializedSamples(
                    database, sample_size=self.config.num_samples, seed=self.config.seed
                )
            )
        self.featurizer = QueryFeaturizer(
            encoding=self.encoding,
            value_normalizer=self.value_normalizer,
            samples=self.samples,
            variant=self.config.variant,
            dtype=self.config.np_dtype,
        )
        self._model: MSCN | None = None
        self._trainer: MSCNTrainer | None = None
        self._normalizer: CardinalityNormalizer | None = None
        self.training_result: TrainingResult | None = None
        self.name = f"MSCN ({self.config.variant.value})"

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        training_queries: list[LabelledQuery],
        validation_queries: list[LabelledQuery] | None = None,
        epochs: int | None = None,
        *,
        train_dataset=None,
        validation_dataset=None,
    ) -> TrainingResult:
        """Train the model on labelled queries.

        When ``validation_queries`` is omitted, the configured
        ``validation_fraction`` of the training queries is held out (the paper
        uses a 90/10 split) and used to record the per-epoch validation mean
        q-error.

        ``train_dataset``/``validation_dataset`` optionally supply the ragged
        featurizations of the (already split) query lists, letting callers
        that train several models on one workload — ensembles, registries —
        featurize it once.  A precomputed ``train_dataset`` therefore requires
        explicit ``validation_queries`` (possibly empty): the estimator must
        not re-split queries the dataset is already aligned with.
        """
        if not training_queries:
            raise ValueError("fit() requires at least one training query")
        if train_dataset is not None and validation_queries is None:
            raise ValueError(
                "a precomputed train_dataset requires explicit validation_queries; "
                "the estimator cannot re-split an already-featurized workload"
            )
        if validation_queries is None:
            training_queries, validation_queries = self._split_validation(training_queries)

        train_cardinalities = np.array([q.cardinality for q in training_queries], dtype=np.float64)
        self._normalizer = CardinalityNormalizer.fit(train_cardinalities)
        self._model = MSCN(
            table_feature_width=self.featurizer.table_feature_width,
            join_feature_width=self.featurizer.join_feature_width,
            predicate_feature_width=self.featurizer.predicate_feature_width,
            hidden_units=self.config.hidden_units,
            rng=spawn_rng(self.config.seed, "model-init"),
            dtype=self.config.np_dtype,
        )
        self._trainer = MSCNTrainer(self._model, self._normalizer, self.config)

        # Training and validation are featurized once, into the ragged
        # layout the trainer's minibatch gathers and the validation
        # predictions both read.
        if train_dataset is None:
            train_dataset = self.featurizer.featurize_ragged(
                [q.query for q in training_queries], cardinalities=train_cardinalities
            )
        validation_cardinalities = None
        if validation_queries:
            validation_cardinalities = np.array(
                [q.cardinality for q in validation_queries], dtype=np.float64
            )
            if validation_dataset is None:
                validation_dataset = self.featurizer.featurize_ragged(
                    [q.query for q in validation_queries],
                    cardinalities=validation_cardinalities,
                )
        else:
            validation_dataset = None
        self.training_result = self._trainer.train(
            train_dataset,
            train_cardinalities,
            validation_dataset,
            validation_cardinalities,
            epochs=epochs,
        )
        return self.training_result

    def _split_validation(
        self, labelled: list[LabelledQuery]
    ) -> tuple[list[LabelledQuery], list[LabelledQuery]]:
        fraction = self.config.validation_fraction
        if fraction <= 0.0 or len(labelled) < 10:
            return list(labelled), []
        rng = spawn_rng(self.config.seed, "validation-split")
        order = rng.permutation(len(labelled))
        num_validation = max(int(round(len(labelled) * fraction)), 1)
        validation_indices = set(order[:num_validation].tolist())
        training = [q for position, q in enumerate(labelled) if position not in validation_indices]
        validation = [q for position, q in enumerate(labelled) if position in validation_indices]
        return training, validation

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _require_trained(self) -> MSCNTrainer:
        if self._trainer is None or self._model is None or self._normalizer is None:
            raise RuntimeError("the estimator has not been trained; call fit() first")
        return self._trainer

    def estimate(self, query: Query) -> float:
        """Estimated cardinality of a single query."""
        return float(self.estimate_many([query])[0])

    def serving_dataset(self, queries: Sequence[Query]) -> RaggedDataset:
        """Featurize serving traffic into the ragged layout prediction reads.

        Public so ensembles (and other fan-out consumers) can featurize a
        workload once and share the dataset across models; pair with
        :meth:`estimate_featurized`.
        """
        return self.featurizer.featurize_ragged(queries)

    def estimate_many(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimated cardinalities for a sequence of queries.

        Featurizes into the ragged layout, reuses the shared bitmap cache,
        and runs the model's forward pass in ``config.dtype`` — the paper's
        sub-millisecond serving path.
        """
        trainer = self._require_trained()
        if not queries:
            return np.empty(0, dtype=np.float64)
        return trainer.predict(self.serving_dataset(queries))

    def estimate_subplans(self, query: Query) -> dict[frozenset[str], float]:
        """Estimates for every connected sub-plan of ``query``, batched.

        The optimizer-facing fan-out path: the sub-queries are derived once
        (``Query.connected_subqueries``) and featurized together into a
        single ragged dataset — sub-plans share base tables, joins and
        predicates, so each distinct element is featurized once and the
        sample-bitmap probes hit the shared bitmap cache.  Inference then
        runs the forward pass in per-sub-plan chunks rather than one big
        matrix: each chunk keeps only its sub-plan's distinct rows, in
        first-seen order — exactly the rows and order featurizing that
        sub-plan alone gives — and BLAS kernels are selected by operand
        shape, so only these shape-matched chunks make the batch path
        **bit-identical** to per-sub-query :meth:`estimate` calls — the
        guarantee an optimizer needs for its costs to be reproducible
        regardless of how estimates were batched.  (The whole-batch
        pass, which projects each element shared by the sub-plans once,
        remains the serving default via
        :meth:`estimate_many`/:meth:`estimate_featurized`.)  The chunks run
        one after another on the calling thread.
        """
        trainer = self._require_trained()
        subqueries = query.connected_subqueries()
        return subplan_map(
            subqueries, trainer.predict(self.serving_dataset(subqueries), batch_size=1)
        )

    def estimate_featurized(self, dataset: RaggedDataset) -> np.ndarray:
        """Estimated cardinalities for queries already featurized by
        :meth:`serving_dataset`; ensembles use this to featurize a workload
        once and fan it out to every member.
        """
        return self._require_trained().predict(dataset)

    def timed_estimate_many(self, queries: Sequence[Query]) -> tuple[np.ndarray, PredictionTiming]:
        """Estimates plus a featurization/inference latency breakdown."""
        trainer = self._require_trained()
        hits_before = self.samples.bitmap_cache_hits if self.samples is not None else 0
        start = time.perf_counter()
        dataset = self.serving_dataset(queries) if queries else None
        featurization_seconds = time.perf_counter() - start
        hits_after = self.samples.bitmap_cache_hits if self.samples is not None else 0
        start = time.perf_counter()
        estimates = (
            trainer.predict(dataset) if dataset is not None else np.empty(0, dtype=np.float64)
        )
        inference_seconds = time.perf_counter() - start
        timing = PredictionTiming(
            num_queries=len(queries),
            featurization_seconds=featurization_seconds,
            inference_seconds=inference_seconds,
            bitmap_cache_hits=hits_after - hits_before,
        )
        return estimates, timing

    def predict_normalized(self, queries: Sequence[Query]) -> np.ndarray:
        """Raw sigmoid outputs in [0, 1] (mostly useful for tests).

        Inference runs in chunks of ``config.batch_size`` queries, so
        arbitrarily long query lists never form one unbounded batch.
        """
        trainer = self._require_trained()
        if not queries:
            return np.empty(0, dtype=np.float64)
        return trainer.predict_normalized(self.serving_dataset(queries))

    # ------------------------------------------------------------------
    # Introspection and persistence
    # ------------------------------------------------------------------
    def model_num_parameters(self) -> int:
        self._require_trained()
        return self._model.num_parameters()

    def model_num_bytes(self) -> int:
        """Size of the serialized model parameters in bytes (Section 4.7)."""
        self._require_trained()
        return state_dict_num_bytes(self._model.state_dict())

    def save(self, directory: str | os.PathLike) -> None:
        """Persist model weights and metadata into ``directory``."""
        self._require_trained()
        os.makedirs(directory, exist_ok=True)
        save_state_dict(self._model.state_dict(), os.path.join(directory, "weights.npz"))
        if self.samples is not None:
            # Inference must see the same sample tuples the model was trained
            # with, so the sampled row indices are persisted alongside the
            # weights (the database snapshot itself is provided at load time).
            save_state_dict(
                self.samples.row_indices_by_table(), os.path.join(directory, "samples.npz")
            )
        metadata = {
            "config": {
                "hidden_units": self.config.hidden_units,
                "epochs": self.config.epochs,
                "batch_size": self.config.batch_size,
                "learning_rate": self.config.learning_rate,
                "loss": self.config.loss.value,
                "variant": self.config.variant.value,
                "num_samples": self.config.num_samples,
                "validation_fraction": self.config.validation_fraction,
                "seed": self.config.seed,
                "shuffle": self.config.shuffle,
                "dtype": self.config.dtype,
                "bucket_by_length": self.config.bucket_by_length,
            },
            "normalizer": {
                "min_log": self._normalizer.min_log,
                "max_log": self._normalizer.max_log,
            },
            "has_samples": self.samples is not None,
            "sample_size": self.samples.sample_size if self.samples is not None else None,
        }
        with open(os.path.join(directory, "metadata.json"), "w", encoding="utf-8") as handle:
            json.dump(metadata, handle, indent=2)

    @classmethod
    def load(cls, directory: str | os.PathLike, database: Database) -> "MSCNEstimator":
        """Load an estimator saved by :meth:`save` against the same database.

        Keys of options retired since an older ``metadata.json`` was written
        are ignored, so saved registry versions keep loading.
        """
        with open(os.path.join(directory, "metadata.json"), "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
        config_data = metadata["config"]
        config = MSCNConfig(
            hidden_units=config_data["hidden_units"],
            epochs=config_data["epochs"],
            batch_size=config_data["batch_size"],
            learning_rate=config_data["learning_rate"],
            loss=LossKind(config_data["loss"]),
            variant=FeaturizationVariant(config_data["variant"]),
            num_samples=config_data["num_samples"],
            validation_fraction=config_data["validation_fraction"],
            seed=config_data["seed"],
            shuffle=config_data["shuffle"],
            # Models saved before these knobs existed were float64.
            dtype=config_data.get("dtype", "float64"),
            bucket_by_length=config_data.get("bucket_by_length", True),
            # Retired keys are not read: e.g. "engine_replicas", or an
            # "inference_precision" of "float16"/"int8", which now serves at
            # the native dtype.
        )
        samples = None
        if metadata.get("has_samples"):
            recorded_rows = load_state_dict(os.path.join(directory, "samples.npz"))
            samples = MaterializedSamples.from_row_indices(
                database,
                sample_size=int(metadata["sample_size"]),
                row_indices=recorded_rows,
                seed=config.seed,
            )
        estimator = cls(database, config, samples=samples)
        estimator._normalizer = CardinalityNormalizer(
            min_log=metadata["normalizer"]["min_log"],
            max_log=metadata["normalizer"]["max_log"],
        )
        estimator._model = MSCN(
            table_feature_width=estimator.featurizer.table_feature_width,
            join_feature_width=estimator.featurizer.join_feature_width,
            predicate_feature_width=estimator.featurizer.predicate_feature_width,
            hidden_units=config.hidden_units,
            rng=spawn_rng(config.seed, "model-init"),
            dtype=config.np_dtype,
        )
        estimator._model.load_state_dict(load_state_dict(os.path.join(directory, "weights.npz")))
        estimator._trainer = MSCNTrainer(estimator._model, estimator._normalizer, config)
        return estimator
