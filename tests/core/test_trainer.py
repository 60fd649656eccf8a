"""Tests of the training loop: losses decrease, overfitting a tiny corpus works."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import RaggedDataset
from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import QueryFeaturizer
from repro.core.model import MSCN
from repro.core.normalization import CardinalityNormalizer, ValueNormalizer
from repro.core.trainer import MSCNTrainer
from repro.nn.loss import q_error_loss
from repro.nn.tensor import Tensor


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
            features[:split],
            cardinalities[:split],
            features[split:],
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
        subset_features = features[:16]
        subset_cards = cardinalities[:16]
        trainer.train(subset_features, subset_cards)
        assert trainer.mean_q_error(subset_features, subset_cards) < 2.0

    def test_predictions_are_positive_cardinalities(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=3, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        trainer.train(features, cardinalities)
        predictions = trainer.predict(features[:10])
        assert predictions.shape == (10,)
        assert (predictions >= 1.0).all()

    def test_predict_empty_input(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=32, seed=3, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        assert trainer.predict([]).size == 0

    def test_validation_is_optional(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=4, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        result = trainer.train(features, cardinalities)
        assert result.validation_q_error_history == []
        assert np.isnan(result.final_validation_q_error)


class TestLossVariants:
    @pytest.mark.parametrize("loss", [LossKind.Q_ERROR, LossKind.MSE, LossKind.GEOMETRIC_Q_ERROR])
    def test_all_objectives_decrease(self, training_setup, loss):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=10, batch_size=32, seed=5,
                            num_samples=50, loss=loss)
        trainer = build_trainer(featurizer, cardinalities, config)
        result = trainer.train(features[:64], cardinalities[:64])
        assert result.train_loss_history[-1] < result.train_loss_history[0]

    def test_denormalize_tensor_matches_normalizer(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=32, seed=6, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        normalized = trainer.normalizer.normalize(np.array([123.0]))
        roundtrip = trainer._denormalize_tensor(Tensor(normalized)).numpy()
        np.testing.assert_allclose(roundtrip, [123.0], rtol=1e-9)

    def test_loss_uses_unnormalized_cardinalities_for_q_error(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=4, seed=7, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        batch = RaggedDataset.from_featurized(
            features[:4],
            labels=trainer.normalizer.normalize(cardinalities[:4]),
            cardinalities=cardinalities[:4],
        )
        predictions = trainer.model.forward_ragged(batch)
        loss = trainer._loss(predictions, batch)
        expected = q_error_loss(
            trainer._denormalize_tensor(predictions), Tensor(batch.cardinalities)
        )
        assert loss.item() == pytest.approx(expected.item())


class TestTrainingModeHandling:
    def test_validation_does_not_leak_eval_mode_into_later_epochs(self, training_setup):
        """Regression: per-epoch validation calls predict(), which switches
        the model to eval(); every epoch after the first must still train in
        training mode (silent today, wrong once Dropout is used)."""
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, seed=8, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)

        modes_at_epoch_start: list[bool] = []
        original_zero_grad = trainer.optimizer.zero_grad

        def recording_zero_grad():
            modes_at_epoch_start.append(trainer.model.training)
            return original_zero_grad()

        trainer.optimizer.zero_grad = recording_zero_grad
        split = int(len(features) * 0.8)
        trainer.train(
            features[:split],
            cardinalities[:split],
            features[split:],
            cardinalities[split:],
        )
        assert all(modes_at_epoch_start), "an optimizer step ran with the model in eval mode"
        # After training completes the model is left in eval mode for serving.
        assert not trainer.model.training


class TestDatasetTrainingPath:
    def test_training_from_dataset_matches_legacy_features(self, training_setup):
        featurizer, features, cardinalities = training_setup
        config = MSCNConfig(hidden_units=16, epochs=5, batch_size=32, seed=9, num_samples=50)
        legacy_trainer = build_trainer(featurizer, cardinalities, config)
        legacy_result = legacy_trainer.train(features[:64], cardinalities[:64])

        dataset = RaggedDataset.from_featurized(features[:64])
        dataset_trainer = build_trainer(featurizer, cardinalities, config)
        dataset_result = dataset_trainer.train(dataset, cardinalities[:64])

        np.testing.assert_allclose(
            legacy_result.train_loss_history, dataset_result.train_loss_history, rtol=1e-12
        )
        subset = dataset.take(np.arange(10))
        np.testing.assert_allclose(
            legacy_trainer.predict(features[:10]),
            dataset_trainer.predict(subset),
            rtol=1e-12,
        )

    def test_mean_q_error_matches_scalar_reference(self, training_setup):
        featurizer, features, cardinalities = training_setup
        from repro.evaluation.metrics import q_error

        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, seed=10, num_samples=50)
        trainer = build_trainer(featurizer, cardinalities, config)
        trainer.train(features[:32], cardinalities[:32])
        predictions = trainer.predict(features[:32])
        expected = float(
            np.mean([q_error(p, t) for p, t in zip(predictions, cardinalities[:32])])
        )
        assert trainer.mean_q_error(features[:32], cardinalities[:32]) == pytest.approx(
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
        trainer.train(features, cardinalities)
        chunked = trainer.predict(features, batch_size=7)
        whole = trainer.predict(features, batch_size=len(features))
        np.testing.assert_allclose(chunked, whole, rtol=rtol)
