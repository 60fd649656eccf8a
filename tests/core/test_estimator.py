"""Tests of the public MSCNEstimator façade (fit, estimate, persistence)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.evaluation.metrics import q_errors


@pytest.fixture(scope="module")
def small_config():
    return MSCNConfig(
        hidden_units=24,
        epochs=25,
        batch_size=32,
        num_samples=50,
        seed=13,
        validation_fraction=0.1,
    )


def reload_with(estimator, database, directory, **config_entries):
    """Save ``estimator``, set ``config_entries`` in its saved config (as an
    older ``metadata.json`` would hold them) and load it back.  Returns the
    loaded estimator and the config as saved."""
    estimator.save(directory)
    metadata_path = directory / "metadata.json"
    metadata = json.loads(metadata_path.read_text(encoding="utf-8"))
    saved = dict(metadata["config"])
    metadata["config"].update(config_entries)
    metadata_path.write_text(json.dumps(metadata), encoding="utf-8")
    return MSCNEstimator.load(directory, database), saved


@pytest.fixture(scope="module")
def trained_estimator(tiny_database, tiny_samples, tiny_workload, small_config):
    estimator = MSCNEstimator(tiny_database, small_config, samples=tiny_samples)
    estimator.fit(tiny_workload)
    return estimator


class TestFitAndEstimate:
    def test_requires_training_queries(self, tiny_database, small_config, tiny_samples):
        estimator = MSCNEstimator(tiny_database, small_config, samples=tiny_samples)
        with pytest.raises(ValueError):
            estimator.fit([])

    @pytest.mark.parametrize("num_samples", [49, 1000])
    def test_samples_of_another_size_than_the_config_raise(
        self, tiny_database, small_config, tiny_samples, num_samples
    ):
        with pytest.raises(ValueError, match=rf"num_samples is {num_samples} .* hold 50 "):
            MSCNEstimator(
                tiny_database, small_config.replace(num_samples=num_samples), samples=tiny_samples
            )

    def test_estimate_before_fit_raises(self, tiny_database, small_config, tiny_samples):
        estimator = MSCNEstimator(tiny_database, small_config, samples=tiny_samples)
        with pytest.raises(RuntimeError):
            estimator.estimate_many([])

    def test_training_records_validation_history(self, trained_estimator, small_config):
        result = trained_estimator.training_result
        assert result is not None
        assert result.epochs_run == small_config.epochs
        assert len(result.validation_q_error_history) == small_config.epochs

    def test_estimates_are_positive_and_finite(self, trained_estimator, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload[:20]]
        estimates = trained_estimator.estimate_many(queries)
        assert estimates.shape == (20,)
        assert np.isfinite(estimates).all()
        assert (estimates >= 1.0).all()

    def test_single_estimate_matches_batch(self, trained_estimator, tiny_workload):
        query = tiny_workload[0].query
        single = trained_estimator.estimate(query)
        batch = trained_estimator.estimate_many([query])[0]
        assert single == pytest.approx(batch)

    def test_training_queries_are_fit_reasonably(self, trained_estimator, tiny_workload):
        """After training, the mean q-error on (seen) training data is far
        better than a constant-guess baseline."""
        queries = [labelled.query for labelled in tiny_workload]
        truths = np.array([labelled.cardinality for labelled in tiny_workload], dtype=float)
        estimates = trained_estimator.estimate_many(queries)
        learned = float(np.mean(q_errors(estimates, truths)))
        constant = float(np.mean(q_errors(np.full_like(truths, truths.mean()), truths)))
        assert learned < constant

    def test_normalized_predictions_in_unit_interval(self, trained_estimator, tiny_workload):
        outputs = trained_estimator.predict_normalized([q.query for q in tiny_workload[:10]])
        assert ((outputs >= 0.0) & (outputs <= 1.0)).all()

    def test_timed_estimates_report_latency(self, trained_estimator, tiny_workload):
        queries = [labelled.query for labelled in tiny_workload[:30]]
        estimates, timing = trained_estimator.timed_estimate_many(queries)
        assert len(estimates) == 30
        assert timing.num_queries == 30
        assert timing.total_seconds > 0
        assert timing.milliseconds_per_query > 0


class TestVariants:
    def test_no_samples_variant_trains_without_samples(self, tiny_database, tiny_workload):
        config = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, num_samples=50,
                            variant=FeaturizationVariant.NO_SAMPLES, seed=3)
        estimator = MSCNEstimator(tiny_database, config)
        estimator.fit(tiny_workload[:60])
        estimates = estimator.estimate_many([q.query for q in tiny_workload[:5]])
        assert (estimates >= 1.0).all()

    def test_estimator_name_includes_variant(self, tiny_database, tiny_samples):
        config = MSCNConfig(hidden_units=16, epochs=1, num_samples=50,
                            variant=FeaturizationVariant.NUM_SAMPLES)
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        assert "num_samples" in estimator.name


class TestIntrospectionAndPersistence:
    def test_model_size_reporting(self, trained_estimator):
        assert trained_estimator.model_num_parameters() > 0
        # Serialized size scales with the configured compute dtype (float32
        # serving models store 4 bytes per parameter).
        itemsize = trained_estimator.config.np_dtype.itemsize
        assert (
            trained_estimator.model_num_bytes()
            >= trained_estimator.model_num_parameters() * itemsize
        )

    def test_save_and_load_reproduce_estimates(self, trained_estimator, tiny_database,
                                               tiny_workload, tmp_path):
        directory = tmp_path / "model"
        trained_estimator.save(directory)
        restored = MSCNEstimator.load(directory, tiny_database)
        queries = [labelled.query for labelled in tiny_workload[:10]]
        np.testing.assert_allclose(
            trained_estimator.estimate_many(queries),
            restored.estimate_many(queries),
            rtol=1e-9,
        )

    def test_load_ignores_retired_metadata_keys(self, trained_estimator, tiny_database,
                                                tiny_workload, tmp_path):
        """Models saved before the padded inference path, the process
        featurization tier, the engine scratch cap, the engine's thread
        tier, the quantized precision tiers and the shuffle and bucketing
        switches were retired still load, and serve bit-identically at
        their native dtype."""
        restored, saved = reload_with(
            trained_estimator, tiny_database, tmp_path / "older",
            fused_inference=False, featurize_workers=2, scratch_rows_cap=512,
            engine_replicas=3, inference_chunk_size=16, inference_precision="int8",
            shuffle=False, bucket_by_length=False,
        )
        assert "shuffle" not in saved and "bucket_by_length" not in saved
        assert restored.config == trained_estimator.config
        queries = [labelled.query for labelled in tiny_workload[:20]]
        np.testing.assert_array_equal(
            restored.estimate_many(queries), trained_estimator.estimate_many(queries)
        )

    @pytest.mark.parametrize("precision", ["int8", "float16", "float32", "float64", None])
    def test_load_serves_a_retired_precision_at_native_dtype(
        self, trained_estimator, tiny_database, tiny_workload, tmp_path, precision
    ):
        """Whatever ``inference_precision`` an older ``metadata.json``
        recorded, the loaded model's layers keep its saved dtype, and it
        estimates bit-identically to the saved model."""
        restored, saved = reload_with(
            trained_estimator, tiny_database, tmp_path / "older", inference_precision=precision
        )
        assert "inference_precision" not in saved
        assert restored.config.dtype == trained_estimator.config.dtype
        assert not hasattr(restored.config, "inference_precision")
        queries = [labelled.query for labelled in tiny_workload[:20]]
        np.testing.assert_array_equal(
            restored.estimate_many(queries), trained_estimator.estimate_many(queries)
        )
        assert restored._model.dtype == restored.config.np_dtype
        for layer in restored._model.layers.values():
            assert layer.weight.dtype == restored.config.np_dtype
            assert layer.bias.dtype == restored.config.np_dtype

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_loaded_model_layers_keep_the_saved_dtype(
        self, tiny_database, tiny_samples, tiny_workload, small_config, tmp_path, dtype
    ):
        """Loading copies the saved weights into the new model's own layers,
        which prediction reads directly: they keep the saved dtype and serve
        bit-identically to the saved model."""
        estimator = MSCNEstimator(
            tiny_database, small_config.replace(epochs=1, dtype=dtype), samples=tiny_samples
        )
        estimator.fit(tiny_workload)
        estimator.save(tmp_path / dtype)
        restored = MSCNEstimator.load(tmp_path / dtype, tiny_database)
        for name, layer in restored._model.layers.items():
            for array in (layer.weight, layer.bias):
                assert array.dtype == np.dtype(dtype), name
                assert array.flags.c_contiguous, name
        queries = [labelled.query for labelled in tiny_workload[:20]]
        np.testing.assert_array_equal(
            restored.estimate_many(queries), estimator.estimate_many(queries)
        )

    def test_load_sizes_the_config_from_the_recorded_samples(
        self, trained_estimator, tiny_database, tiny_workload, tmp_path
    ):
        """A model saved while the estimator accepted samples of another size
        than ``config.num_samples`` recorded the wrong number; it loads with
        the size of the samples it was trained on."""
        restored, saved = reload_with(
            trained_estimator, tiny_database, tmp_path / "mismatched", num_samples=1000
        )
        assert saved["num_samples"] == 50
        assert restored.config.num_samples == restored.samples.sample_size == 50
        queries = [labelled.query for labelled in tiny_workload[:20]]
        np.testing.assert_array_equal(
            restored.estimate_many(queries), trained_estimator.estimate_many(queries)
        )

    def test_save_before_fit_raises(self, tiny_database, small_config, tiny_samples, tmp_path):
        estimator = MSCNEstimator(tiny_database, small_config, samples=tiny_samples)
        with pytest.raises(RuntimeError):
            estimator.save(tmp_path / "nope")


class TestVectorizedServingPath:
    def test_predict_normalized_chunks_by_batch_size(self, trained_estimator, tiny_workload,
                                                     small_config):
        """More queries than config.batch_size must not form one giant batch
        (regression: the whole list used to form one unbounded batch)."""
        queries = [labelled.query for labelled in tiny_workload]
        assert len(queries) > small_config.batch_size
        outputs = trained_estimator.predict_normalized(queries)
        assert outputs.shape == (len(queries),)
        assert ((outputs >= 0.0) & (outputs <= 1.0)).all()
        # Chunked and single-batch inference agree.
        head = trained_estimator.predict_normalized(queries[: small_config.batch_size])
        np.testing.assert_allclose(outputs[: small_config.batch_size], head, rtol=1e-12)

    def test_estimate_many_empty_list(self, trained_estimator):
        assert trained_estimator.estimate_many([]).size == 0

    def test_repeated_serving_calls_hit_the_bitmap_cache(self, trained_estimator,
                                                         tiny_workload):
        queries = [labelled.query for labelled in tiny_workload[:25]]
        _, first = trained_estimator.timed_estimate_many(queries)
        _, second = trained_estimator.timed_estimate_many(queries)
        num_probes = sum(len(q.tables) for q in queries)
        # After the first call every probe of the repeated workload is cached.
        assert second.bitmap_cache_hits == num_probes
        assert first.bitmap_cache_hits <= num_probes

    def test_save_load_roundtrip_preserves_bitmap_semantics(self, trained_estimator,
                                                            tiny_database, tiny_workload,
                                                            tmp_path):
        """A restored estimator starts with a cold bitmap cache but produces
        identical estimates, and its cache warms up across serving calls."""
        directory = tmp_path / "roundtrip"
        trained_estimator.save(directory)
        restored = MSCNEstimator.load(directory, tiny_database)
        assert restored.samples.bitmap_cache_size == 0
        queries = [labelled.query for labelled in tiny_workload[:15]]
        expected = trained_estimator.estimate_many(queries)
        _, first = restored.timed_estimate_many(queries)
        estimates, second = restored.timed_estimate_many(queries)
        np.testing.assert_allclose(estimates, expected, rtol=1e-9)
        assert second.bitmap_cache_hits == sum(len(q.tables) for q in queries)
        assert restored.samples.bitmap_cache_size > 0
