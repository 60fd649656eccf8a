"""Tests of the low-precision inference tiers (float16 / int8 snapshots).

The accuracy contract: serving quantized weight snapshots keeps the
**median q-error within 5% relative** of the float32 engine and preserves the
estimate ranking of the evaluation workload.  The storage contract: float16
halves and int8 quarters the snapshot's weight bytes relative to float32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.estimator import MSCNEstimator
from repro.core.featurization import QueryFeaturizer
from repro.core.inference import (
    SUPPORTED_PRECISIONS,
    EngineLayer,
    InferenceEngine,
    WeightSnapshot,
    resolve_precision,
)
from repro.core.model import MSCN
from repro.core.normalization import ValueNormalizer
from repro.evaluation.metrics import q_errors


@pytest.fixture(scope="module")
def precision_parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    featurizer = QueryFeaturizer(
        encoding,
        value_normalizer,
        samples=tiny_samples,
        variant=FeaturizationVariant.BITMAPS,
        dtype=np.float32,
    )
    model = MSCN(
        table_feature_width=featurizer.table_feature_width,
        join_feature_width=featurizer.join_feature_width,
        predicate_feature_width=featurizer.predicate_feature_width,
        hidden_units=24,
        rng=np.random.default_rng(3),
        dtype=np.float32,
    )
    return featurizer, model


@pytest.fixture(scope="module")
def trained_float32(tiny_database, tiny_samples, tiny_workload):
    config = MSCNConfig(
        hidden_units=24, epochs=10, batch_size=32, num_samples=50, seed=13
    )
    estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
    estimator.fit(tiny_workload)
    return estimator


def quantized_clone(reference: MSCNEstimator, tiny_database, tiny_samples, precision):
    """A serving clone of ``reference`` with a quantized inference tier."""
    clone = MSCNEstimator(
        tiny_database,
        reference.config.replace(inference_precision=precision),
        samples=tiny_samples,
    )
    clone._model = reference._model
    clone._normalizer = reference._normalizer
    from repro.core.trainer import MSCNTrainer

    clone._trainer = MSCNTrainer(clone._model, clone._normalizer, clone.config)
    return clone


class TestResolvePrecision:
    def test_none_inherits_dtype(self):
        assert resolve_precision(np.dtype(np.float32)) == (np.dtype(np.float32), "float32")
        assert resolve_precision(np.dtype(np.float32), dtype=np.float64) == (
            np.dtype(np.float64),
            "float64",
        )

    def test_quantized_tiers_compute_in_float32(self):
        for tag in ("float16", "int8"):
            compute, precision = resolve_precision(np.dtype(np.float32), precision=tag)
            assert compute == np.dtype(np.float32)
            assert precision == tag

    def test_rejects_unsupported(self):
        with pytest.raises(ValueError):
            resolve_precision(np.dtype(np.float32), precision="int16")
        with pytest.raises(ValueError):
            resolve_precision(np.dtype(np.float32), dtype=np.int8)


class TestConfigKnobs:
    """``MSCNConfig.inference_precision`` resolves through the engine's table."""

    def test_rejects_invalid_serving_knobs(self):
        with pytest.raises(ValueError):
            MSCNConfig(inference_precision="int16")

    def test_precision_accepts_aliases_and_none(self):
        assert MSCNConfig(inference_precision="half").inference_precision == "float16"
        assert MSCNConfig(inference_precision=None).inference_precision is None
        assert MSCNConfig(inference_precision="int8").inference_precision == "int8"

    @pytest.mark.parametrize(
        "alias, tag",
        [
            ("float16", "float16"),
            ("half", "float16"),
            ("f2", "float16"),
            ("float32", "float32"),
            ("single", "float32"),
            ("f4", "float32"),
            ("float64", "float64"),
            ("double", "float64"),
            ("f8", "float64"),
            ("int8", "int8"),
            ("i1", "int8"),
        ],
    )
    def test_config_and_engine_resolve_aliases_alike(self, alias, tag):
        assert MSCNConfig(inference_precision=alias).inference_precision == tag
        assert resolve_precision(np.dtype(np.float32), precision=alias)[1] == tag
        assert tag in SUPPORTED_PRECISIONS

    @pytest.mark.parametrize(
        "junk", ["int16", "uint8", "bfloat16", "complex64", "float128", "fast"]
    )
    def test_config_and_engine_reject_the_same_precisions(self, junk):
        with pytest.raises(ValueError):
            MSCNConfig(inference_precision=junk)
        with pytest.raises(ValueError):
            resolve_precision(np.dtype(np.float32), precision=junk)


class TestEngineLayerQuantization:
    def test_float16_layer_rounds_through_half(self, precision_parts):
        _, model = precision_parts
        layer = EngineLayer(model.layers["table_mlp.first"], np.dtype(np.float32), "float16")
        assert layer.stored_weight.dtype == np.float16
        assert layer.weight.dtype == np.float32
        np.testing.assert_array_equal(
            layer.weight, layer.stored_weight.astype(np.float32)
        )
        # The compute copy differs from the raw weights only by fp16 rounding.
        np.testing.assert_allclose(
            layer.weight, model.layers["table_mlp.first"].weight, rtol=1e-3, atol=1e-4
        )

    def test_int8_layer_is_symmetric_per_tensor(self, precision_parts):
        _, model = precision_parts
        linear = model.layers["table_mlp.first"]
        layer = EngineLayer(linear, np.dtype(np.float32), "int8")
        assert layer.stored_weight.dtype == np.int8
        assert np.abs(layer.stored_weight).max() <= 127
        expected_scale = float(np.abs(np.float64(linear.weight)).max()) / 127.0
        assert layer.weight_scale == pytest.approx(expected_scale)
        np.testing.assert_array_equal(
            layer.weight, layer.stored_weight.astype(np.float32) * np.float32(layer.weight_scale)
        )
        # Quantization error is bounded by half a quantization step.
        assert (
            np.abs(layer.weight - np.float32(linear.weight)).max()
            <= 0.5 * layer.weight_scale + 1e-7
        )
        # Biases stay float32 — quantizing them buys nothing.
        assert layer.stored_bias.dtype == np.float32

    def test_int8_all_zero_weights_use_unit_scale(self, precision_parts):
        _, model = precision_parts
        linear = model.layers["table_mlp.first"]
        saved = linear.weight.copy()
        try:
            linear.weight = np.zeros_like(saved)
            layer = EngineLayer(linear, np.dtype(np.float32), "int8")
            assert layer.weight_scale == 1.0
            assert not layer.stored_weight.any()
        finally:
            linear.weight = saved

    def test_snapshot_storage_shrinks_with_the_tier(self, precision_parts):
        _, model = precision_parts
        fp32 = WeightSnapshot(model, np.dtype(np.float32), "float32")
        fp16 = WeightSnapshot(model, np.dtype(np.float32), "float16")
        int8 = WeightSnapshot(model, np.dtype(np.float32), "int8")
        assert fp16.stored_num_bytes == fp32.stored_num_bytes // 2
        # int8 weights are a quarter of fp32; float32 biases keep it above 1/4.
        assert int8.stored_num_bytes < fp16.stored_num_bytes


class TestQuantizedAccuracyContract:
    @pytest.mark.parametrize("precision", ["float16", "int8"])
    def test_median_q_error_within_contract_and_ranking_preserved(
        self, trained_float32, tiny_database, tiny_samples, tiny_workload, precision
    ):
        queries = [labelled.query for labelled in tiny_workload]
        truths = np.array([labelled.cardinality for labelled in tiny_workload])
        reference = trained_float32.estimate_many(queries)
        clone = quantized_clone(
            trained_float32, tiny_database, tiny_samples, precision
        )
        quantized = clone.estimate_many(queries)

        reference_median = float(np.median(q_errors(reference, truths)))
        quantized_median = float(np.median(q_errors(quantized, truths)))
        relative_delta = abs(quantized_median - reference_median) / reference_median
        assert relative_delta < 0.05, (
            f"{precision} median q-error {quantized_median:.4f} drifted "
            f"{100 * relative_delta:.2f}% from float32 {reference_median:.4f}"
        )
        if precision == "float16":
            # fp16 rounding is too small to reorder the workload at all.
            np.testing.assert_array_equal(
                np.argsort(reference, kind="stable"),
                np.argsort(quantized, kind="stable"),
                err_msg="float16 changed the estimate ranking",
            )
        else:
            # int8 may swap near-ties; the ranking must still be the
            # reference ranking up to the quantization tolerance — walking
            # the int8 ordering, reference estimates never drop more than 5%
            # below the running maximum (a genuine reorder would be a cliff).
            order = np.argsort(quantized, kind="stable")
            reference_in_order = reference[order]
            running_max = np.maximum.accumulate(reference_in_order)
            inversions = (running_max - reference_in_order) / running_max
            assert inversions.max() < 0.05, (
                f"int8 reordered non-tied estimates ({100 * inversions.max():.2f}% "
                "reference drop within the quantized ordering)"
            )

    @pytest.mark.parametrize("precision", ["float16", "int8"])
    def test_engine_reports_quantized_tier(self, precision_parts, precision):
        featurizer, model = precision_parts
        engine = InferenceEngine(model, precision=precision)
        assert engine.precision == precision
        assert engine.dtype == np.dtype(np.float32)

    def test_float16_engine_matches_rounded_weights_exactly(
        self, precision_parts, tiny_workload
    ):
        """fp16 serving is *fake-quant*: identical to a float32 engine over a
        model whose weights were rounded through half precision."""
        featurizer, model = precision_parts
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:24]]
        )
        quantized = InferenceEngine(model, precision="float16").run(dataset)

        saved = {name: (layer.weight, layer.bias) for name, layer in model.layers.items()}
        try:
            for layer in model.layers.values():
                layer.weight = layer.weight.astype(np.float16).astype(np.float32)
                layer.bias = layer.bias.astype(np.float16).astype(np.float32)
            rounded = InferenceEngine(model, dtype=np.float32).run(dataset)
        finally:
            for name, layer in model.layers.items():
                layer.weight, layer.bias = saved[name]
        np.testing.assert_array_equal(quantized, rounded)
