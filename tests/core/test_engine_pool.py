"""Tests of the engine's replica tier: ``InferenceEngine(replicas=)``.

The contracts under test:

* ``run`` output is **bit-identical** to the serial chunk-by-chunk path at
  equal dtype, for every replica count and chunk size — chunk boundaries are
  the serial path's own, so results do not depend on which worker ran which
  chunk;
* concurrent callers sharing one engine all receive bit-identical results,
  with and without worker threads (the engine keeps no scratch, so no run
  lock is needed);
* a refresh racing in-flight batches never yields a mixed-generation output:
  every batch corresponds wholly to one weight snapshot.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.estimator import MSCNEstimator
from repro.core.featurization import QueryFeaturizer
from repro.core.inference import InferenceEngine
from repro.core.model import MSCN
from repro.core.normalization import ValueNormalizer
from repro.utils.faults import FaultPlan, FaultSpec, InjectedFault


@pytest.fixture(scope="module")
def pool_parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, dtype=np.float64):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding,
        value_normalizer,
        samples=samples,
        variant=FeaturizationVariant.BITMAPS,
        dtype=dtype,
    )


def make_model(featurizer, dtype=np.float64):
    return MSCN(
        table_feature_width=featurizer.table_feature_width,
        join_feature_width=featurizer.join_feature_width,
        predicate_feature_width=featurizer.predicate_feature_width,
        hidden_units=24,
        rng=np.random.default_rng(3),
        dtype=dtype,
    )


def serial_reference(model, dataset, chunk_size, dtype, precision=None):
    """One whole-chunk run per chunk boundary, concatenated."""
    engine = InferenceEngine(model, dtype=dtype, precision=precision)
    outputs = [
        engine.run(dataset.slice(start, min(start + chunk_size, dataset.size)))
        for start in range(0, dataset.size, chunk_size)
    ]
    return np.concatenate(outputs)


def run_in_threads(target, num_threads: int) -> None:
    """Run ``target(i)`` on ``num_threads`` threads with frequent switches."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=(i,)) for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "a caller never finished"


class TestReplicaBitIdentity:
    @pytest.mark.parametrize(
        "dtype, precision",
        [(np.float64, None), (np.float32, None), (np.float32, "float16"), (np.float32, "int8")],
        ids=["float64", "float32", "float16", "int8"],
    )
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 1000])
    def test_run_bit_identical_to_serial(
        self, pool_parts, tiny_workload, dtype, precision, replicas, chunk_size
    ):
        featurizer = make_featurizer(pool_parts, dtype=dtype)
        model = make_model(featurizer, dtype=dtype)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:60]]
        )
        reference = serial_reference(model, dataset, chunk_size, dtype, precision)
        with InferenceEngine(
            model, dtype=dtype, precision=precision, replicas=replicas
        ) as engine:
            output = engine.run(dataset, chunk_size=chunk_size)
        assert output.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(output, reference)

    def test_default_chunk_is_one_whole_batch(self, pool_parts, tiny_workload):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:20]]
        )
        with InferenceEngine(model, replicas=3) as engine:
            np.testing.assert_array_equal(
                engine.run(dataset), serial_reference(model, dataset, dataset.size, np.float64)
            )

    def test_empty_dataset_returns_empty(self, pool_parts, tiny_workload):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:4]]
        )
        with InferenceEngine(model, replicas=2) as engine:
            result = engine.run(dataset.slice(0, 0))
        assert result.shape == (0,)

    def test_refresh_bumps_the_generation(self, pool_parts):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        engine = InferenceEngine(model, replicas=3)
        first = engine.snapshot
        assert engine.generation == 0
        engine.refresh()
        assert engine.generation == 1
        assert engine.snapshot is not first

    def test_close_is_idempotent_and_engine_stays_usable(self, pool_parts, tiny_workload):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:24]]
        )
        engine = InferenceEngine(model, replicas=2)
        reference = engine.run(dataset, chunk_size=4)
        engine.close()
        engine.close()
        np.testing.assert_array_equal(engine.run(dataset, chunk_size=4), reference)
        engine.close()

    def test_worker_failures_surface_after_every_worker_finished(
        self, pool_parts, tiny_workload
    ):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:24]]
        )
        with InferenceEngine(model, replicas=3) as engine:
            # One failing chunk: its own exception propagates.
            with FaultPlan([FaultSpec("engine.run", max_triggers=1)]).activate():
                with pytest.raises(InjectedFault):
                    engine.run(dataset, chunk_size=4)
            # Every worker fails: one error names them all.
            with FaultPlan([FaultSpec("engine.run")]).activate() as plan:
                with pytest.raises(RuntimeError, match="3/3 engine replicas failed"):
                    engine.run(dataset, chunk_size=4)
            # Each worker stops at its first failing chunk.
            assert plan.triggered("engine.run") == 3

    def test_validation(self, pool_parts, tiny_workload):
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        with pytest.raises(ValueError):
            InferenceEngine(model, replicas=0)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:4]]
        )
        with InferenceEngine(model) as engine:
            with pytest.raises(ValueError):
                engine.run(dataset, chunk_size=0)


class TestConcurrentCallers:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_threaded_callers_all_get_bit_identical_results(
        self, pool_parts, tiny_workload, replicas
    ):
        """Four threads share one engine; with ``replicas=1`` they all run
        inline at once, which only works because a run keeps no state."""
        featurizer = make_featurizer(pool_parts, dtype=np.float32)
        model = make_model(featurizer, dtype=np.float32)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:48]]
        )
        reference = serial_reference(model, dataset, 8, np.float32)
        mismatches: list[int] = []
        with InferenceEngine(model, dtype=np.float32, replicas=replicas) as engine:

            def caller(caller_id: int) -> None:
                for _ in range(12):
                    if not np.array_equal(engine.run(dataset, chunk_size=8), reference):
                        mismatches.append(caller_id)
                        return

            run_in_threads(caller, 4)
        assert not mismatches, "a concurrent caller observed a non-identical result"

    def test_hot_swap_under_load_never_mixes_generations(
        self, pool_parts, tiny_workload
    ):
        """Every batch in flight during refreshes must equal one of the two
        whole-generation references exactly — a mixed-generation batch (some
        chunks old weights, some new) matches neither."""
        featurizer = make_featurizer(pool_parts)
        model = make_model(featurizer)
        dataset = featurizer.featurize_ragged(
            [labelled.query for labelled in tiny_workload[:24]]
        )
        state_a = {name: p.data.copy() for name, p in model.named_parameters()}
        state_b = {name: p.data + 0.25 for name, p in model.named_parameters()}

        with InferenceEngine(model, replicas=3) as engine:

            def install(state):
                for name, parameter in model.named_parameters():
                    parameter.data = state[name].copy()
                engine.refresh()

            install(state_a)
            reference_a = engine.run(dataset, chunk_size=4).copy()
            install(state_b)
            reference_b = engine.run(dataset, chunk_size=4).copy()
            assert not np.array_equal(reference_a, reference_b)

            stop = threading.Event()
            torn_outputs: list[np.ndarray] = []

            def reader(_: int) -> None:
                while not stop.is_set():
                    output = engine.run(dataset, chunk_size=4)
                    if not (
                        np.array_equal(output, reference_a)
                        or np.array_equal(output, reference_b)
                    ):
                        torn_outputs.append(output.copy())
                        return

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
            for thread in threads:
                thread.start()
            for _ in range(100):
                install(state_a)
                install(state_b)
            stop.set()
            for thread in threads:
                thread.join()
        assert not torn_outputs, "a batch mixed weight generations"


class TestEstimatorIntegration:
    def test_replicated_estimator_matches_single_engine_estimator(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        """estimate_many over engine replicas is bit-identical to the default
        single-replica configuration (same weights, same chunking)."""
        base = MSCNConfig(
            hidden_units=24, epochs=6, batch_size=32, num_samples=50, seed=13
        )
        single = MSCNEstimator(tiny_database, base, samples=tiny_samples)
        single.fit(tiny_workload)
        replicated = MSCNEstimator(
            tiny_database,
            base.replace(engine_replicas=3, inference_chunk_size=16),
            samples=tiny_samples,
        )
        replicated.fit(tiny_workload)
        replicated._model.load_state_dict(single._model.state_dict())

        queries = [labelled.query for labelled in tiny_workload]
        np.testing.assert_array_equal(
            replicated.estimate_many(queries),
            single._trainer.predict(single.serving_dataset(queries), batch_size=16),
        )
        # The optimizer fan-out path (chunk size 1) runs on the replicas too
        # and stays bit-identical to per-subquery estimates.
        query = max(queries, key=lambda q: len(q.tables))
        assert replicated.estimate_subplans(query) == single.estimate_subplans(query)


class TestConfigKnobs:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine_replicas", 0),
            ("inference_chunk_size", 0),
            ("inference_precision", "int16"),
        ],
    )
    def test_rejects_invalid_serving_knobs(self, field, value):
        with pytest.raises(ValueError):
            MSCNConfig(**{field: value})

    def test_chunk_size_error_is_self_describing(self):
        with pytest.raises(ValueError, match="inference_chunk_size must be >= 1"):
            MSCNConfig(inference_chunk_size=-3)

    def test_precision_accepts_aliases_and_none(self):
        assert MSCNConfig(inference_precision="half").inference_precision == "float16"
        assert MSCNConfig(inference_precision=None).inference_precision is None
        assert MSCNConfig(inference_precision="int8").inference_precision == "int8"
