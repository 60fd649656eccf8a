"""Tests of the zero-copy featurize-into-buffers serving path.

Contracts: with ``buffers=``, :meth:`QueryFeaturizer.featurize_ragged`
hands out views into the caller's :class:`FeatureBuffers` (no
per-micro-batch allocation in steady state), buffers grow monotonically and
regrow on width/dtype changes, and the fused engine consumes the views
without copying.  Bit identity against the per-query featurizer, with and
without buffers, is ``test_featurization_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.encoding import SchemaEncoding
from repro.core.estimator import MSCNEstimator
from repro.core.featurization import FeatureBuffers, QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.db.query import Query

@pytest.fixture(scope="module")
def buffer_parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, variant=FeaturizationVariant.BITMAPS, dtype=np.float64):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding, value_normalizer, samples=samples, variant=variant, dtype=dtype
    )


@pytest.fixture(scope="module")
def workload_queries(tiny_workload):
    # Include a query with empty join/predicate sets.
    return [Query(tables=("title",))] + [labelled.query for labelled in tiny_workload]


class TestFeaturizeIntoBuffers:
    def test_dataset_aliases_the_buffers(self, buffer_parts, workload_queries):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        dataset = featurizer.featurize_ragged(workload_queries, buffers=buffers)
        assert dataset.tables.features.base is buffers._arrays["tables"]
        assert dataset.joins.features.base is buffers._arrays["joins"]
        assert dataset.predicates.features.base is buffers._arrays["predicates"]

    def test_reuse_does_not_reallocate_and_rezeroes(
        self, buffer_parts, workload_queries
    ):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        featurizer.featurize_ragged(workload_queries, buffers=buffers)
        backing = dict(buffers._arrays)
        grown_nbytes = buffers.nbytes
        # A smaller batch reuses the same backing arrays ...
        small = workload_queries[:7]
        dataset = featurizer.featurize_ragged(small, buffers=buffers)
        assert all(buffers._arrays[name] is backing[name] for name in backing)
        assert buffers.nbytes == grown_nbytes
        # ... and its contents are exactly a fresh featurization (stale rows
        # from the larger batch were re-zeroed before writing).
        reference = featurizer.featurize_ragged(small)
        for name in ("tables", "joins", "predicates"):
            np.testing.assert_array_equal(
                getattr(dataset, name).features, getattr(reference, name).features
            )

    def test_buffers_grow_monotonically(self, buffer_parts, workload_queries):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        featurizer.featurize_ragged(workload_queries[:4], buffers=buffers)
        small_nbytes = buffers.nbytes
        featurizer.featurize_ragged(workload_queries, buffers=buffers)
        assert buffers.nbytes > small_nbytes

    def test_width_or_dtype_change_reallocates(self, buffer_parts, workload_queries):
        buffers = FeatureBuffers()
        wide = make_featurizer(buffer_parts, FeaturizationVariant.BITMAPS)
        narrow = make_featurizer(buffer_parts, FeaturizationVariant.NO_SAMPLES)
        wide.featurize_ragged(workload_queries, buffers=buffers)
        dataset = narrow.featurize_ragged(workload_queries, buffers=buffers)
        assert dataset.tables.features.shape[1] == narrow.table_feature_width
        reference = narrow.featurize_ragged(workload_queries)
        np.testing.assert_array_equal(dataset.tables.features, reference.tables.features)

        float32 = make_featurizer(
            buffer_parts, FeaturizationVariant.NO_SAMPLES, dtype=np.float32
        )
        dataset = float32.featurize_ragged(workload_queries, buffers=buffers)
        assert dataset.tables.features.dtype == np.float32

    def test_reset_releases_backing_storage(self, buffer_parts, workload_queries):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        featurizer.featurize_ragged(workload_queries, buffers=buffers)
        assert buffers.nbytes > 0
        buffers.reset()
        assert buffers.nbytes == 0
        # And the buffers keep working after a reset.
        dataset = featurizer.featurize_ragged(workload_queries[:3], buffers=buffers)
        assert dataset.size == 3

    def test_empty_workload_raises(self, buffer_parts):
        featurizer = make_featurizer(buffer_parts)
        with pytest.raises(ValueError):
            featurizer.featurize_ragged([], buffers=FeatureBuffers())


class TestGrowthPolicy:
    """The arena-backed buffers' growth contract, checked byte-for-byte."""

    @pytest.mark.parametrize("warm_size", (1, 7))
    def test_byte_identity_before_and_after_grow(
        self, buffer_parts, workload_queries, warm_size
    ):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        # Warm with a tiny batch, then grow to the full workload: the grown
        # featurization must be byte-identical to a fresh allocation.
        featurizer.featurize_ragged(workload_queries[:warm_size], buffers=buffers)
        grown = featurizer.featurize_ragged(workload_queries, buffers=buffers)
        fresh = featurizer.featurize_ragged(workload_queries, buffers=FeatureBuffers())
        for name in ("tables", "joins", "predicates"):
            a, b = getattr(grown, name), getattr(fresh, name)
            assert a.features.tobytes() == b.features.tobytes(), name
            assert a.offsets.tobytes() == b.offsets.tobytes(), name

    @pytest.mark.parametrize("oversize_first", (False, True))
    def test_byte_identity_at_exact_and_oversized_capacity(
        self, buffer_parts, workload_queries, oversize_first
    ):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        batch = workload_queries[:9]
        if oversize_first:
            # Oversized: capacity left over from a much larger batch.
            featurizer.featurize_ragged(workload_queries, buffers=buffers)
        else:
            # Exact: capacity matches the batch precisely.
            featurizer.featurize_ragged(batch, buffers=buffers)
        reused = featurizer.featurize_ragged(batch, buffers=buffers)
        fresh = featurizer.featurize_ragged(batch, buffers=FeatureBuffers())
        for name in ("tables", "joins", "predicates"):
            a, b = getattr(reused, name), getattr(fresh, name)
            assert a.features.tobytes() == b.features.tobytes(), name

    def test_capacity_never_shrinks_within_a_generation(
        self, buffer_parts, workload_queries
    ):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        featurizer.featurize_ragged(workload_queries, buffers=buffers)
        generation = buffers.generation
        peak = buffers.nbytes
        for size in (1, 7, 3):
            featurizer.featurize_ragged(workload_queries[:size], buffers=buffers)
            assert buffers.nbytes == peak
        assert buffers.generation == generation

    def test_generation_advance_resets_capacity(self, buffer_parts, workload_queries):
        featurizer = make_featurizer(buffer_parts)
        buffers = FeatureBuffers()
        featurizer.featurize_ragged(workload_queries, buffers=buffers)
        peak = buffers.nbytes
        generation = buffers.generation
        buffers.advance_generation()
        assert buffers.generation == generation + 1
        assert buffers.nbytes == 0
        # Post-swap the buffers regrow to fit the new workload only.
        featurizer.featurize_ragged(workload_queries[:3], buffers=buffers)
        assert 0 < buffers.nbytes < peak

    def test_service_swap_advances_the_buffer_generation(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        from repro.serving.service import EstimationService

        config = MSCNConfig(
            hidden_units=16, epochs=2, batch_size=32, num_samples=50, seed=3
        )
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        estimator.fit(tiny_workload[:60])
        service = EstimationService(estimator)
        try:
            queries = [labelled.query for labelled in tiny_workload[:10]]
            service.estimate_many(queries)
            assert service._feature_buffers.nbytes > 0
            generation = service._feature_buffers.generation
            service.swap_model(estimator)
            assert service._feature_buffers.generation == generation + 1
            assert service._feature_buffers.nbytes == 0
        finally:
            service.close()


class TestEstimatorBuffersPath:
    def test_serving_dataset_into_buffers_matches_direct(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        config = MSCNConfig(
            hidden_units=24, epochs=4, batch_size=32, num_samples=50, seed=13
        )
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        estimator.fit(tiny_workload)
        queries = [labelled.query for labelled in tiny_workload[:40]]
        buffers = FeatureBuffers()
        buffered = estimator.serving_dataset(queries, buffers=buffers)
        assert buffered.tables.features.base is buffers._arrays["tables"]
        np.testing.assert_array_equal(
            estimator.estimate_featurized(buffered),
            estimator.estimate_many(queries),
        )
        # The engine consumed the views without copying: the arrays are
        # already contiguous and in the engine dtype.
        assert buffered.tables.features.flags["C_CONTIGUOUS"]
        assert buffered.tables.features.dtype == estimator.config.np_dtype
