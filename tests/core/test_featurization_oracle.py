"""The featurization oracle: the workload path against the per-query reference.

``QueryFeaturizer.featurize_ragged`` (compiled plan -> ragged arrays, with
and without caller-owned ``FeatureBuffers``) must equal
``RaggedDataset.from_featurized(featurizer.featurize_many(queries))`` bit for
bit, on every registered dataset, featurization variant and compute dtype,
and at every plan cache cap — small caps force query evictions and
probe-matrix flushes, which must never change a single feature.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import RaggedDataset
from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import CompiledFeaturizerPlan, FeatureBuffers, QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.datasets import registered_datasets
from repro.db.query import Query
from repro.db.sampling import MaterializedSamples
from repro.workload.generator import generate_training_workload

DATASET_NAMES = tuple(spec.name for spec in registered_datasets())
PLAN_CAPS = (CompiledFeaturizerPlan.DEFAULT_MAX_CACHED_QUERIES, 8, 2)


@pytest.fixture(scope="module")
def dataset_parts():
    """Per-dataset (database, samples, queries) at miniature scale.

    Every query list starts with a lone table — empty join and predicate
    sets — and ends with a few queries repeated as-is and a few with every
    set listed in reverse, so cache hits (and same-signature queries in
    another element order) happen inside a batch.
    """
    parts = {}
    for spec in registered_datasets():
        database = spec.generate(scale=0.04, seed=5)
        samples = MaterializedSamples(database, sample_size=25, seed=5)
        workload = generate_training_workload(spec, database, num_queries=60, seed=13)
        queries = [Query(tables=(database.table_names[0],))]
        queries += [labelled.query for labelled in workload]
        queries += queries[1:6]
        queries += [
            Query(q.tables[::-1], q.joins[::-1], q.predicates[::-1])
            for q in queries[1:] if len(q.tables) > 1
        ][:5]
        parts[spec.name] = (database, samples, queries)
    return parts


def make_featurizer(database, samples, variant, dtype, cap):
    featurizer = QueryFeaturizer(
        SchemaEncoding.from_schema(database.schema),
        ValueNormalizer.from_database(database),
        samples=samples,
        variant=variant,
        dtype=dtype,
    )
    featurizer._plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=cap)
    return featurizer


def assert_ragged_equal(got: RaggedDataset, want: RaggedDataset, context: str) -> None:
    for name in ("tables", "joins", "predicates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.features.dtype == b.features.dtype, f"{context}:{name}"
        np.testing.assert_array_equal(a.features, b.features, err_msg=f"{context}:{name}")
        np.testing.assert_array_equal(a.offsets, b.offsets, err_msg=f"{context}:{name}")


@pytest.mark.parametrize("into_buffers", (False, True), ids=("fresh", "buffers"))
@pytest.mark.parametrize("cap", PLAN_CAPS, ids=("default", "cap8", "cap2"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("float32", "float64"))
@pytest.mark.parametrize("variant", tuple(FeaturizationVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_featurize_ragged_matches_per_query_oracle(
    dataset_parts, name, variant, dtype, cap, into_buffers
):
    database, samples, queries = dataset_parts[name]
    featurizer = make_featurizer(database, samples, variant, dtype, cap)
    oracle = RaggedDataset.from_featurized(featurizer.featurize_many(queries))
    buffers = FeatureBuffers() if into_buffers else None
    # The second pass replays the plan's caches (and, at small caps, the
    # probe-matrix flush at the start of the batch).
    for attempt in range(2):
        context = f"{name}:{variant.value}:{np.dtype(dtype).name}:cap={cap}:pass{attempt}"
        assert_ragged_equal(featurizer.featurize_ragged(queries, buffers=buffers), oracle, context)
