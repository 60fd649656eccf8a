"""Cross-schema vocabularies (the registry's core guarantee).

For every registered dataset, the one-hot vocabulary sizes and feature
widths must be exactly the quantities the spec's schema determines — no
hidden IMDb assumptions anywhere in encoding or featurization.  Bit identity
of the workload path on every dataset is ``test_featurization_oracle.py``.
"""

from __future__ import annotations

import pytest

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.datasets import registered_datasets
from repro.db.predicates import Operator
from repro.db.sampling import MaterializedSamples
from repro.workload.generator import generate_training_workload

DATASET_NAMES = tuple(spec.name for spec in registered_datasets())


@pytest.fixture(scope="module")
def scenario_parts():
    """Per-dataset (spec, database, samples, queries) at miniature scale."""
    parts = {}
    for spec in registered_datasets():
        database = spec.generate(scale=0.04, seed=5)
        samples = MaterializedSamples(database, sample_size=25, seed=5)
        workload = generate_training_workload(spec, database, num_queries=60, seed=13)
        parts[spec.name] = (spec, database, samples, [q.query for q in workload])
    return parts


def make_featurizer(database, samples, variant):
    encoding = SchemaEncoding.from_schema(database.schema)
    normalizer = ValueNormalizer.from_database(database)
    return QueryFeaturizer(encoding, normalizer, samples=samples, variant=variant)


class TestVocabulariesMatchSchema:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_vocabulary_sizes_are_schema_derived(self, name, scenario_parts):
        spec, database, _, _ = scenario_parts[name]
        encoding = SchemaEncoding.from_schema(database.schema)
        schema = spec.schema
        assert encoding.num_tables == len(schema.tables)
        assert encoding.num_joins == len(schema.join_edges())
        assert encoding.num_columns == len(schema.non_key_columns())
        assert encoding.num_operators == len(Operator)

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_feature_widths_follow_vocabularies(self, name, scenario_parts):
        _, database, samples, _ = scenario_parts[name]
        featurizer = make_featurizer(database, samples, FeaturizationVariant.BITMAPS)
        encoding = featurizer.encoding
        assert featurizer.table_feature_width == encoding.num_tables + samples.sample_size
        assert featurizer.join_feature_width == max(encoding.num_joins, 1)
        assert (
            featurizer.predicate_feature_width
            == encoding.num_columns + encoding.num_operators + 1
        )

