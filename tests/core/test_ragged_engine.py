"""Tests of the ragged compute path and chunked prediction.

The contracts under test:

* :meth:`~repro.core.trainer.MSCNTrainer.predict_normalized` is
  **bit-identical** to the model's forward pass (``repro.core.model.forward``)
  over the same chunks, at every chunk size, in both compute dtypes, for all
  three featurization variants, including empty join/predicate sets; and in
  float64 both agree to 1e-12 with a per-query reference written from the
  paper's Section 3.2 equations;
* a prediction computes on its caller's thread; threads sharing one trainer
  get bit-identical results, and a failing chunk stops the call with its own
  exception;
* in float32, the model stays within single-precision tolerance of the
  float64 reference and preserves the q-error ranking of a seeded workload;
* the ragged containers (gather, slice, minibatch iteration) are faithful
  re-arrangements of the underlying queries.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.batching import RaggedDataset, RaggedSet, iterate_ragged_minibatches
from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.estimator import MSCNEstimator
from repro.core.featurization import QueryFeaturizer
from repro.core.model import MSCN, SET_MODULES, backward, forward
from repro.core.normalization import CardinalityNormalizer, ValueNormalizer
from repro.core.trainer import MSCNTrainer
from repro.db.query import Query
from repro.evaluation.metrics import q_errors
from repro.nn.functional import segment_sum_array
from repro.utils.faults import FaultPlan, FaultSpec, InjectedFault

ALL_VARIANTS = tuple(FeaturizationVariant)


@pytest.fixture(scope="module")
def featurizer_parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, variant, dtype=np.float64):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding, value_normalizer, samples=samples, variant=variant, dtype=dtype
    )


@pytest.fixture(scope="module")
def workload_queries(tiny_workload):
    # Prepend a single-table query with no joins and no predicates so the
    # empty-set handling is exercised by every equivalence test.
    return [Query(tables=("title",))] + [labelled.query for labelled in tiny_workload]


def make_model(featurizer, dtype=np.float64, hidden=24):
    return MSCN(
        table_feature_width=featurizer.table_feature_width,
        join_feature_width=featurizer.join_feature_width,
        predicate_feature_width=featurizer.predicate_feature_width,
        hidden_units=hidden,
        rng=np.random.default_rng(3),
        dtype=dtype,
    )


def make_trainer(model) -> MSCNTrainer:
    """A trainer over ``model``; only its prediction path is exercised."""
    config = MSCNConfig(hidden_units=model.hidden_units, batch_size=32, dtype=model.dtype.name)
    return MSCNTrainer(model, CardinalityNormalizer(min_log=0.0, max_log=10.0), config)


def predict(model, dataset, chunk_size=None) -> np.ndarray:
    """``predict_normalized`` at ``chunk_size`` (``None``: one whole chunk)."""
    return make_trainer(model).predict_normalized(
        dataset, batch_size=chunk_size or max(dataset.size, 1)
    )


def model_forward(model, dataset) -> np.ndarray:
    """The model's forward pass as a flat vector of predictions."""
    return forward(dataset, model.layers)[:, 0]


def chunked_forward(model, dataset, chunk_size) -> np.ndarray:
    """The model's forward pass over the chunks a prediction splits into."""
    return np.concatenate(
        [
            model_forward(model, dataset.slice(start, start + chunk_size))
            for start in range(0, dataset.size, chunk_size)
        ]
    )


def paper_reference(model, dataset) -> np.ndarray:
    """Per-query float64 predictions written from the Section 3.2 equations.

    ``w_S = 1/|S| * sum_{s in S} MLP_S(v_s)`` for each set (a zero vector for
    an empty set), ``w_out = sigmoid(MLP_out([w_T, w_J, w_P]))``, where each
    MLP is two ReLU layers and MLP_out's second layer is the sigmoid's input.
    """
    def layer(name, inputs):
        linear = model.layers[name]
        return np.asarray(inputs, np.float64) @ linear.weight + linear.bias

    def relu(values):
        return np.maximum(values, 0.0)

    predictions = []
    for query in range(dataset.size):
        representations = []
        for attribute, prefix in SET_MODULES:
            ragged_set = getattr(dataset, attribute)
            elements = ragged_set.features[
                ragged_set.rows[ragged_set.offsets[query] : ragged_set.offsets[query + 1]]
            ]
            if len(elements) == 0:
                representations.append(np.zeros(model.hidden_units))
                continue
            transformed = relu(layer(prefix + ".second", relu(layer(prefix + ".first", elements))))
            representations.append(transformed.mean(axis=0))
        hidden = relu(layer("output_hidden", np.concatenate(representations)))
        predictions.append(1.0 / (1.0 + np.exp(-layer("output_final", hidden)[0])))
    return np.array(predictions)


class TestRaggedFeaturization:
    def test_empty_workload_raises(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        with pytest.raises(ValueError):
            featurizer.featurize_ragged([])


class RecordingPlan(FaultPlan):
    """A plan with no faults that records every site it is consulted at."""

    def __init__(self):
        super().__init__([])
        self.calls: list[tuple[str, dict]] = []

    def fire(self, site: str, **context) -> None:
        self.calls.append((site, context))
        super().fire(site, **context)


class TestChunkedPrediction:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 1000, None])
    def test_prediction_bit_identical_to_model_forward(
        self, featurizer_parts, workload_queries, variant, chunk_size
    ):
        featurizer = make_featurizer(featurizer_parts, variant)
        model = make_model(featurizer)
        ragged = featurizer.featurize_ragged(workload_queries)
        output = predict(model, ragged, chunk_size)
        np.testing.assert_array_equal(
            output, chunked_forward(model, ragged, chunk_size or ragged.size)
        )
        np.testing.assert_allclose(output, paper_reference(model, ragged), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("chunk_size", [1, 7, None])
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_chunked_prediction_bit_identical_to_per_chunk_forward(
        self, featurizer_parts, workload_queries, variant, dtype, chunk_size
    ):
        featurizer = make_featurizer(featurizer_parts, variant, dtype)
        model = make_model(featurizer, dtype=dtype)
        ragged = featurizer.featurize_ragged(workload_queries[:60])
        output = predict(model, ragged, chunk_size)
        reference = chunked_forward(model, ragged, chunk_size or ragged.size)
        assert reference.dtype == np.dtype(dtype)
        assert output.dtype == np.float64
        np.testing.assert_array_equal(output, reference.astype(np.float64))

    def test_prediction_at_chunk_size_one_starts_no_thread(
        self, featurizer_parts, workload_queries
    ):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        trainer = make_trainer(make_model(featurizer))
        ragged = featurizer.featurize_ragged(workload_queries[:24])
        threads_before = threading.active_count()
        trainer.predict_normalized(ragged, batch_size=1)
        assert threading.active_count() == threads_before

    def test_empty_dataset_and_invalid_chunk_size(self, featurizer_parts, workload_queries):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        trainer = make_trainer(make_model(featurizer))
        ragged = featurizer.featurize_ragged(workload_queries[:4])
        empty = trainer.predict_normalized(ragged.slice(0, 0))
        assert empty.shape == (0,) and empty.dtype == np.float64
        with pytest.raises(ValueError):
            trainer.predict_normalized(ragged, batch_size=0)

    @pytest.mark.parametrize("failing_chunk", [0, 2, 5])
    def test_failing_chunk_propagates_its_own_exception(
        self, featurizer_parts, workload_queries, failing_chunk
    ):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        trainer = make_trainer(make_model(featurizer))
        ragged = featurizer.featurize_ragged(workload_queries[:24])
        spec = FaultSpec("engine.run", max_triggers=1, skip_first=failing_chunk)
        with FaultPlan([spec]).activate() as plan:
            with pytest.raises(InjectedFault):
                trainer.predict_normalized(ragged, batch_size=4)
        # The call stops at its first failing chunk: no later chunk computes.
        assert plan.triggered("engine.run") == 1
        assert plan.evaluations("engine.run") == failing_chunk + 1

    @pytest.mark.parametrize("chunk_size,sizes", [(4, [4, 4, 2]), (10, [10]), (1, [1] * 10)])
    def test_engine_run_fires_once_per_chunk_with_its_size(
        self, featurizer_parts, workload_queries, chunk_size, sizes
    ):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        trainer = make_trainer(make_model(featurizer))
        ragged = featurizer.featurize_ragged(workload_queries[:10])
        with RecordingPlan().activate() as plan:
            trainer.predict_normalized(ragged, batch_size=chunk_size)
        assert plan.calls == [("engine.run", {"batch_size": size}) for size in sizes]

    @pytest.mark.parametrize("chunk_size", [1, 8, None])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_threaded_callers_all_get_bit_identical_results(
        self, featurizer_parts, workload_queries, dtype, chunk_size
    ):
        """Four threads share one trainer and predict at once, which only
        works because a prediction keeps no state outside its own frame."""
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS, dtype)
        model = make_model(featurizer, dtype=dtype)
        ragged = featurizer.featurize_ragged(workload_queries[:48])
        trainer = make_trainer(model)
        batch_size = chunk_size or ragged.size
        reference = trainer.predict_normalized(ragged, batch_size=batch_size).copy()
        np.testing.assert_array_equal(
            reference, chunked_forward(model, ragged, batch_size).astype(np.float64)
        )
        mismatches: list[int] = []

        def caller(caller_id: int) -> None:
            for _ in range(12):
                output = trainer.predict_normalized(ragged, batch_size=batch_size)
                if not np.array_equal(output, reference):
                    mismatches.append(caller_id)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a caller never finished"
        assert not mismatches, "a concurrent caller observed a non-identical result"

    def test_prediction_handles_empty_sets_and_single_queries(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        model = make_model(featurizer)
        queries = [Query(tables=("title",))]
        ragged = featurizer.featurize_ragged(queries)
        assert ragged.joins.features.shape[0] == 0
        assert ragged.predicates.features.shape[0] == 0
        output = predict(model, ragged)
        np.testing.assert_array_equal(output, model_forward(model, ragged))
        np.testing.assert_allclose(output, paper_reference(model, ragged), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_predictions_track_in_place_weight_updates(
        self, featurizer_parts, workload_queries, dtype
    ):
        """Predictions read the model's own layers, so an in-place update
        (what Adam and ``load_state_dict`` do) shows in the next call."""
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES, dtype)
        model = make_model(featurizer, dtype=dtype)
        ragged = featurizer.featurize_ragged(workload_queries[:10])
        trainer = make_trainer(model)
        before = trainer.predict_normalized(ragged).copy()
        for _, parameter in model.named_parameters():
            parameter += dtype(0.05)
        after = trainer.predict_normalized(ragged)
        assert not np.allclose(before, after)
        np.testing.assert_array_equal(after, model_forward(model, ragged).astype(np.float64))


class TestFloat32FusedPath:
    def test_float32_predictions_within_tolerance_and_same_ranking(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        """The float32 fused path tracks the float64 path to < 1e-3 relative
        error and ranks the workload's q-errors identically."""
        base = MSCNConfig(
            hidden_units=24, epochs=12, batch_size=32, num_samples=50, seed=13
        )
        estimator64 = MSCNEstimator(
            tiny_database, base.replace(dtype="float64"), samples=tiny_samples
        )
        estimator64.fit(tiny_workload)
        estimator32 = MSCNEstimator(
            tiny_database, base.replace(dtype="float32"), samples=tiny_samples
        )
        estimator32.fit(tiny_workload)

        queries = [labelled.query for labelled in tiny_workload]
        truths = np.array([labelled.cardinality for labelled in tiny_workload])
        predictions64 = estimator64.estimate_many(queries)
        # Run the float64-trained weights through a float32 model so the
        # comparison isolates inference precision (training trajectories
        # diverge between dtypes long before round-off matters).
        estimator32._model.load_state_dict(estimator64._model.state_dict())
        predictions32 = estimator32.estimate_many(queries)

        relative_error = np.abs(predictions32 - predictions64) / predictions64
        assert relative_error.max() < 1e-3
        ranking64 = np.argsort(q_errors(predictions64, truths), kind="stable")
        ranking32 = np.argsort(q_errors(predictions32, truths), kind="stable")
        np.testing.assert_array_equal(ranking64, ranking32)

    def test_float32_training_does_not_promote_to_float64(
        self, featurizer_parts, workload_queries
    ):
        """The whole backward pass stays in the configured precision: a
        float64 operand anywhere (labels, scalars, reduction results) would
        silently promote every gradient of a float32 model."""
        from repro.core.normalization import CardinalityNormalizer
        from repro.core.trainer import MSCNTrainer

        featurizer = make_featurizer(
            featurizer_parts, FeaturizationVariant.BITMAPS, dtype=np.float32
        )
        model = make_model(featurizer, dtype=np.float32)
        cardinalities = np.linspace(1.0, 500.0, len(workload_queries))
        ragged = featurizer.featurize_ragged(workload_queries)
        for loss in LossKind:
            config = MSCNConfig(
                hidden_units=24, epochs=1, batch_size=16, num_samples=50, dtype="float32",
                loss=loss,
            )
            trainer = MSCNTrainer(model, CardinalityNormalizer.fit(cardinalities), config)
            batch = ragged.take(
                np.arange(16),
                labels=trainer.normalizer.normalize(cardinalities[:16]),
                cardinalities=cardinalities[:16],
            )
            trace: dict = {}
            predictions = forward(batch, model.layers, trace)
            loss_value, grad = trainer._loss(predictions, batch)
            assert grad.dtype == np.float32, loss
            gradients = backward(trace, model.layers, grad)
            assert {g.dtype for g in gradients.values()} == {np.dtype(np.float32)}, loss

    def test_float32_pipeline_produces_float32_tensors(
        self, featurizer_parts, workload_queries
    ):
        featurizer = make_featurizer(
            featurizer_parts, FeaturizationVariant.BITMAPS, dtype=np.float32
        )
        ragged = featurizer.featurize_ragged(workload_queries)
        assert ragged.tables.features.dtype == np.float32
        model = make_model(featurizer, dtype=np.float32)
        assert all(p.dtype == np.float32 for _, p in model.named_parameters())
        assert model_forward(model, ragged).dtype == np.float32


class TestRaggedContainers:
    def test_take_matches_python_reference(self, featurizer_parts, workload_queries):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        ragged = featurizer.featurize_ragged(workload_queries)
        rng = np.random.default_rng(5)
        indices = rng.permutation(len(workload_queries))[:17]
        taken = ragged.take(indices)
        reference = featurizer.featurize_ragged([workload_queries[i] for i in indices])
        # A gather keeps only its own distinct rows, in first-seen order:
        # exactly what featurizing the selection as one batch stores.
        for name in ("tables", "joins", "predicates"):
            np.testing.assert_array_equal(
                getattr(taken, name).features, getattr(reference, name).features
            )
            np.testing.assert_array_equal(getattr(taken, name).rows, getattr(reference, name).rows)
            np.testing.assert_array_equal(
                getattr(taken, name).offsets, getattr(reference, name).offsets
            )

    def test_slice_keeps_only_its_own_rows(self, featurizer_parts, workload_queries):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        ragged = featurizer.featurize_ragged(workload_queries)
        assert ragged.slice(0, ragged.size).tables is ragged.tables
        chunk = ragged.slice(3, 9)
        assert chunk.size == 6
        reference = featurizer.featurize_ragged(workload_queries[3:9])
        for name in ("tables", "joins", "predicates"):
            got, want = getattr(chunk, name), getattr(reference, name)
            np.testing.assert_array_equal(got.features, want.features, err_msg=name)
            np.testing.assert_array_equal(got.rows, want.rows, err_msg=name)
            np.testing.assert_array_equal(got.offsets, want.offsets, err_msg=name)

    def test_ragged_minibatches_cover_all_queries_once(
        self, featurizer_parts, workload_queries
    ):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        ragged = featurizer.featurize_ragged(workload_queries)
        count = ragged.size
        labels = np.arange(count, dtype=np.float64)
        cards = labels + 1.0
        seen: list[float] = []
        for batch in iterate_ragged_minibatches(
            ragged, labels, cards, batch_size=16, rng=np.random.default_rng(0)
        ):
            assert isinstance(batch, RaggedDataset)
            assert batch.size <= 16
            seen.extend(batch.labels.reshape(-1).tolist())
        assert sorted(seen) == labels.tolist()

    def test_bucketed_batches_are_length_homogeneous(
        self, featurizer_parts, workload_queries
    ):
        """The spread of per-query element counts inside a bucketed batch is
        no larger than inside plain chunks of the shuffled workload."""
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        ragged = featurizer.featurize_ragged(workload_queries)
        labels = np.zeros(ragged.size)
        cards = np.ones(ragged.size)

        def spread(batches) -> float:
            return float(
                np.mean([float(b.total_elements.max() - b.total_elements.min()) for b in batches])
            )

        order = np.random.default_rng(1).permutation(ragged.size)
        unbucketed = [ragged.take(order[start : start + 16]) for start in range(0, ragged.size, 16)]
        bucketed = iterate_ragged_minibatches(
            ragged, labels, cards, 16, rng=np.random.default_rng(1)
        )
        assert spread(bucketed) <= spread(unbucketed)


class TestSegmentOps:
    def test_segment_sum_matches_manual(self):
        data = np.arange(10, dtype=np.float64).reshape(5, 2)
        offsets = np.array([0, 2, 2, 5])
        result = segment_sum_array(data, offsets, np.diff(offsets))
        np.testing.assert_array_equal(
            result, [[0 + 2, 1 + 3], [0.0, 0.0], [4 + 6 + 8, 5 + 7 + 9]]
        )

    def test_segment_sum_reads_elements_through_rows(self):
        data = np.arange(6, dtype=np.float64).reshape(3, 2)
        offsets = np.array([0, 3, 3, 5])
        rows = np.array([2, 0, 2, 1, 1])
        result = segment_sum_array(data, offsets, np.diff(offsets), rows=rows)
        np.testing.assert_array_equal(
            result,
            segment_sum_array(data[rows], offsets, np.diff(offsets)),
        )
        np.testing.assert_array_equal(result, [[4 + 0 + 4, 5 + 1 + 5], [0, 0], [2 + 2, 3 + 3]])

    def test_segment_mean_empty_segment_is_zero(self):
        ragged_set = RaggedSet(
            features=np.ones((3, 4)), offsets=np.array([0, 3, 3]), rows=np.arange(3)
        )
        result = (
            segment_sum_array(ragged_set.features, ragged_set.offsets, ragged_set.lengths)
            * ragged_set.inv_counts
        )
        np.testing.assert_array_equal(result, [[1.0] * 4, [0.0] * 4])

    def test_ragged_set_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            # The offsets cover two of the four elements.
            RaggedSet(features=np.ones((4, 2)), offsets=np.array([0, 2]), rows=np.arange(4))


class TestPrecomputedPoolingAux:
    def test_ragged_sets_carry_inverse_counts(self, featurizer_parts, workload_queries):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        ragged = featurizer.featurize_ragged(workload_queries)
        for ragged_set in (ragged.tables, ragged.joins, ragged.predicates):
            expected = 1.0 / np.maximum(np.diff(ragged_set.offsets), 1.0)
            np.testing.assert_array_equal(ragged_set.inv_counts.reshape(-1), expected)


class TestServingConsistency:
    def test_estimate_many_matches_model_forward_in_float64(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        """estimate_many through chunked prediction is bit-identical to one
        forward pass of the model over the whole workload in float64."""
        config = MSCNConfig(
            hidden_units=24, epochs=8, batch_size=32, num_samples=50, seed=17,
            dtype="float64",
        )
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        estimator.fit(tiny_workload)
        queries = [labelled.query for labelled in tiny_workload]
        fused = estimator.estimate_many(queries)
        normalized = model_forward(
            estimator._model, estimator.featurizer.featurize_ragged(queries)
        )
        reference = estimator._normalizer.denormalize(normalized)
        np.testing.assert_array_equal(fused, reference)

    def test_predictions_are_float64_regardless_of_compute_dtype(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        """A float32 model computes in single precision internally, but
        the prediction APIs hand callers float64 (the regression was float32
        arrays leaking out of the serving path)."""
        config = MSCNConfig(
            hidden_units=16, epochs=2, batch_size=32, num_samples=50, seed=19,
            dtype="float32",
        )
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        estimator.fit(tiny_workload)
        queries = [labelled.query for labelled in tiny_workload[:20]]
        dataset = estimator.featurizer.featurize_ragged(queries)
        # The forward pass itself stays in its compute dtype ...
        assert model_forward(estimator._model, dataset).dtype == np.float32
        # ... but every caller-facing boundary is float64.
        assert estimator.estimate_many(queries).dtype == np.float64
        assert estimator.predict_normalized(queries).dtype == np.float64
        assert estimator._trainer.predict(dataset).dtype == np.float64
        estimates, timing = estimator.timed_estimate_many(queries)
        assert estimates.dtype == np.float64
        assert timing.num_queries == len(queries)
