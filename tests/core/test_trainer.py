"""Tests of the training loop: losses decrease, overfitting a tiny corpus works."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import RaggedDataset
from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import FeaturizedQuery, QueryFeaturizer
from repro.core.model import MSCN, backward, forward
from repro.core.normalization import CardinalityNormalizer, ValueNormalizer
from repro.core.trainer import MSCNTrainer
from repro.nn.loss import q_error_loss


@pytest.fixture(scope="module")
def training_setup(tiny_database, tiny_samples, tiny_workload):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    featurizer = QueryFeaturizer(
        encoding,
        ValueNormalizer.from_database(tiny_database),
        samples=tiny_samples,
        variant=FeaturizationVariant.BITMAPS,
    )
    features = featurizer.featurize_many([q.query for q in tiny_workload])
    cardinalities = np.array([q.cardinality for q in tiny_workload], dtype=np.float64)
    return featurizer, features, cardinalities


def ragged(features) -> RaggedDataset:
    """Per-query featurizations in the ragged layout the trainer reads."""
    return RaggedDataset.from_featurized(features)


def build_trainer(featurizer, cardinalities, config):
    normalizer = CardinalityNormalizer.fit(cardinalities)
    model = MSCN(
        table_feature_width=featurizer.table_feature_width,
        join_feature_width=featurizer.join_feature_width,
        predicate_feature_width=featurizer.predicate_feature_width,
        hidden_units=config.hidden_units,
        rng=np.random.default_rng(config.seed),
        dtype=config.np_dtype,
    )
    return MSCNTrainer(model, normalizer, config)


class TestTrainingLoop:
    def test_training_reduces_loss_and_validation_error(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=15, batch_size=32, seed=1, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        split = int(len(features) * 0.8)
        result = trainer.train(
            ragged(features[:split]),
            cardinalities[:split],
            ragged(features[split:]),
            cardinalities[split:],
        )
        assert result.epochs_run == 15
        assert len(result.train_loss_history) == 15
        assert len(result.validation_q_error_history) == 15
        assert result.train_loss_history[-1] < result.train_loss_history[0]
        assert result.final_validation_q_error < result.validation_q_error_history[0]
        assert result.training_seconds > 0

    def test_can_overfit_a_tiny_corpus(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=32, epochs=60, batch_size=8, seed=2, num_samples=50,
                            learning_rate=5e-3)
        trainer = build_trainer(featurizer, cardinalities, config)
        subset_features = ragged(features[:16])
        subset_cards = cardinalities[:16]
        trainer.train(subset_features, subset_cards)
        assert trainer.mean_q_error(subset_features, subset_cards) < 2.0

    def test_predictions_are_positive_cardinalities(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=3, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        trainer.train(ragged(features), cardinalities)
        predictions = trainer.predict(ragged(features[:10]))
        assert predictions.shape == (10,)
        assert (predictions >= 1.0).all()

    def test_predict_empty_input(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=32, seed=3, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        assert trainer.predict(ragged(features[:1]).slice(0, 0)).size == 0

    def test_validation_is_optional(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=4, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        result = trainer.train(ragged(features), cardinalities)
        assert result.validation_q_error_history == []
        assert np.isnan(result.final_validation_q_error)


class TestLossVariants:
    @pytest.mark.parametrize("loss", [LossKind.Q_ERROR, LossKind.MSE, LossKind.GEOMETRIC_Q_ERROR])
    def test_all_objectives_decrease(self, training_setup, loss):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=10, batch_size=32, seed=5,
                            num_samples=50, loss=loss)
        trainer = build_trainer(featurizer, cardinalities, config)
        result = trainer.train(ragged(features[:64]), cardinalities[:64])
        assert result.train_loss_history[-1] < result.train_loss_history[0]

    def test_loss_denormalizes_like_the_normalizer(self, training_setup):
        """The q-error of normalized predictions that equal the normalized
        truths is 1: the loss's denormalization inverts the normalizer."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=32, seed=6, num_samples=50,
                            dtype="float64")
        trainer = build_trainer(featurizer, cardinalities, config)
        batch = RaggedDataset.from_featurized(
            features[:4],
            labels=trainer.normalizer.normalize(cardinalities[:4]),
            cardinalities=cardinalities[:4],
        )
        loss, _ = trainer._loss(batch.labels, batch)
        assert loss == pytest.approx(1.0, rel=1e-9)

    def test_loss_uses_unnormalized_cardinalities_for_q_error(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=4, seed=7, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        batch = RaggedDataset.from_featurized(
            features[:4],
            labels=trainer.normalizer.normalize(cardinalities[:4]),
            cardinalities=cardinalities[:4],
        )
        predictions = forward(batch, trainer.model.layers)
        loss, _ = trainer._loss(predictions, batch)
        expected, _ = q_error_loss(
            trainer.normalizer.denormalize(predictions.astype(np.float64)),
            batch.cardinalities,
        )
        assert loss == pytest.approx(float(expected), rel=1e-5)


class TestComputeDtype:
    def test_float64_features_train_a_float32_model_in_float32(self, training_setup):
        """A float32 trainer fed float64 features computes, and keeps Adam
        state, in float32, and trains exactly as on features cast first (the
        regression was a float64 operand promoting the whole pass)."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, seed=12,
                            num_samples=50, dtype="float32")
        wide = ragged(features[:64])
        assert wide.tables.features.dtype == np.float64
        narrow = ragged(
            [
                FeaturizedQuery(
                    query.table_features.astype(np.float32),
                    query.join_features.astype(np.float32),
                    query.predicate_features.astype(np.float32),
                )
                for query in features[:64]
            ]
        )

        trainer = build_trainer(featurizer, cardinalities, config)
        batch = wide.take(
            np.arange(16),
            labels=trainer.normalizer.normalize(cardinalities[:16]),
            cardinalities=cardinalities[:16],
        )
        trace: dict = {}
        predictions = forward(batch, trainer.model.layers, trace)
        _, grad = trainer._loss(predictions, batch)
        gradients = backward(trace, trainer.model.layers, grad)
        assert predictions.dtype == np.float32 and grad.dtype == np.float32
        assert {g.dtype for g in gradients.values()} == {np.dtype(np.float32)}

        wide_result = trainer.train(wide, cardinalities[:64])
        moments = [*trainer.optimizer._first_moment.values(),
                   *trainer.optimizer._second_moment.values()]
        assert {m.dtype for m in moments} == {np.dtype(np.float32)}
        narrow_trainer = build_trainer(featurizer, cardinalities, config)
        narrow_result = narrow_trainer.train(narrow, cardinalities[:64])
        assert wide_result.train_loss_history == narrow_result.train_loss_history
        for (name, value), (_, expected) in zip(
            trainer.model.named_parameters(), narrow_trainer.model.named_parameters()
        ):
            assert value.dtype == np.float32, name
            np.testing.assert_array_equal(value, expected, err_msg=name)


class TestDatasetTrainingPath:
    def test_distinct_row_layout_trains_like_the_reference_layout(
        self, training_setup, tiny_workload
    ):
        """Training on ``featurize_ragged``'s distinct-row layout matches
        training on the one-row-per-element ``from_featurized`` layout up to
        float64 round-off (projecting shared rows once reassociates sums)."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=5, batch_size=32, seed=9, num_samples=50,
                            dtype="float64")
        reference = ragged(features[:64])
        reference_trainer = build_trainer(featurizer, cardinalities, config)
        reference_result = reference_trainer.train(reference, cardinalities[:64])

        dataset = featurizer.featurize_ragged([q.query for q in tiny_workload[:64]])
        dataset_trainer = build_trainer(featurizer, cardinalities, config)
        dataset_result = dataset_trainer.train(dataset, cardinalities[:64])

        np.testing.assert_allclose(
            reference_result.train_loss_history, dataset_result.train_loss_history, rtol=1e-9
        )
        np.testing.assert_allclose(
            reference_trainer.predict(reference.slice(0, 10)),
            dataset_trainer.predict(dataset.take(np.arange(10))),
            rtol=1e-9,
        )

    def test_mean_q_error_matches_scalar_reference(self, training_setup):
        featurizer, features, cardinalities = training_setup
        from repro.evaluation.metrics import q_error

        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=10, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        trainer.train(ragged(features[:32]), cardinalities[:32])
        predictions = trainer.predict(ragged(features[:32]))
        expected = float(
            np.mean([q_error(p, t) for p, t in zip(predictions, cardinalities[:32])])
        )
        assert trainer.mean_q_error(ragged(features[:32]), cardinalities[:32]) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("dtype,rtol", [("float64", 1e-12), ("float32", 1e-5)])
    def test_predict_chunks_match_single_batch(self, training_setup, dtype, rtol):
        """Chunked and single-batch inference agree: exactly in float64,
        within single-precision round-off in float32 (BLAS may pick different
        sgemm kernels for different chunk heights)."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(
            hidden_units=16, epochs=2, batch_size=32, seed=11, num_samples=50, dtype=dtype
        )
        trainer = build_trainer(featurizer, cardinalities, config)
        dataset = ragged(features)
        trainer.train(dataset, cardinalities)
        chunked = trainer.predict(dataset, batch_size=7)
        whole = trainer.predict(dataset, batch_size=len(features))
        np.testing.assert_allclose(chunked, whole, rtol=rtol)


class TestPredictionsTrackTraining:
    """Predictions run on the model's own layers, so they see every update."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_predictions_after_more_training_use_the_new_weights(
        self, training_setup, dtype
    ):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(
            hidden_units=16, epochs=2, batch_size=32, seed=6, num_samples=50, dtype=dtype
        )
        trainer = build_trainer(featurizer, cardinalities, config)
        dataset = ragged(features)
        trainer.train(dataset, cardinalities)
        before = trainer.predict(dataset.slice(0, 10))
        np.testing.assert_array_equal(before, trainer.predict(dataset.slice(0, 10)))
        trainer.train(dataset, cardinalities, epochs=1)
        after = trainer.predict(dataset.slice(0, 10))
        assert not np.array_equal(before, after)
        fresh = forward(dataset.slice(0, 10), trainer.model.layers)[:, 0]
        np.testing.assert_array_equal(
            after, trainer.normalizer.denormalize(fresh.astype(np.float64))
        )


class TestReproducibility:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("loss", list(LossKind))
    def test_same_seed_trains_a_bit_identical_model(self, training_setup, loss, dtype):
        """Two trainers built from one seed produce the same histories and
        the same weights, bit for bit (what a retrained model relies on)."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=8, epochs=2, batch_size=16, seed=21,
                            num_samples=50, loss=loss, dtype=dtype)
        results, models = [], []
        for _ in range(2):
            trainer = build_trainer(featurizer, cardinalities, config)
            results.append(
                trainer.train(ragged(features[:48]), cardinalities[:48],
                              ragged(features[48:64]), cardinalities[48:64])
            )
            models.append(trainer.model)
        assert results[0].train_loss_history == results[1].train_loss_history
        assert results[0].validation_q_error_history == results[1].validation_q_error_history
        for (name, value), (_, other) in zip(
            models[0].named_parameters(), models[1].named_parameters()
        ):
            assert value.dtype == np.dtype(dtype), name
            np.testing.assert_array_equal(value, other, err_msg=name)
