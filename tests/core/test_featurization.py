"""Tests of query featurization (Sections 3.1 and 3.4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.db.predicates import Operator
from repro.db.query import JoinCondition, Predicate, Query


@pytest.fixture(scope="module")
def featurizer_parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, variant):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(encoding, value_normalizer, samples=samples, variant=variant)


def example_query() -> Query:
    return Query(
        tables=("title", "movie_companies"),
        joins=(JoinCondition("movie_companies", "movie_id", "title", "id"),),
        predicates=(
            Predicate("title", "production_year", Operator.GT, 2000),
            Predicate("movie_companies", "company_id", Operator.EQ, 3),
        ),
    )


class TestWidths:
    def test_no_samples_width(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding = featurizer_parts[0]
        assert featurizer.table_feature_width == encoding.num_tables
        assert featurizer.sample_feature_width == 0

    def test_num_samples_width(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NUM_SAMPLES)
        assert featurizer.sample_feature_width == 1

    def test_bitmap_width(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        assert featurizer.sample_feature_width == featurizer_parts[2].sample_size

    def test_predicate_width(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding = featurizer_parts[0]
        assert (
            featurizer.predicate_feature_width
            == encoding.num_columns + encoding.num_operators + 1
        )

    def test_sampling_variants_require_samples(self, featurizer_parts):
        encoding, value_normalizer, _ = featurizer_parts
        with pytest.raises(ValueError):
            QueryFeaturizer(encoding, value_normalizer, samples=None,
                            variant=FeaturizationVariant.BITMAPS)

    def test_no_samples_variant_without_samples_is_fine(self, featurizer_parts):
        encoding, value_normalizer, _ = featurizer_parts
        featurizer = QueryFeaturizer(
            encoding, value_normalizer, samples=None, variant=FeaturizationVariant.NO_SAMPLES
        )
        featurized = featurizer.featurize(example_query())
        assert featurized.num_tables == 2


class TestFeatureContents:
    def test_set_sizes_match_query(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        featurized = featurizer.featurize(example_query())
        assert featurized.num_tables == 2
        assert featurized.num_joins == 1
        assert featurized.num_predicates == 2

    def test_single_table_query_has_empty_join_set(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        featurized = featurizer.featurize(Query(tables=("title",)))
        assert featurized.num_joins == 0
        assert featurized.join_features.shape == (0, featurizer.join_feature_width)
        assert featurized.num_predicates == 0

    def test_table_one_hot_embedded_in_table_vector(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding = featurizer_parts[0]
        featurized = featurizer.featurize(example_query())
        np.testing.assert_array_equal(
            featurized.table_features[0], encoding.table_one_hot("title")
        )

    def test_bitmap_appended_to_table_vector(self, featurizer_parts, tiny_samples):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        encoding = featurizer_parts[0]
        query = example_query()
        featurized = featurizer.featurize(query)
        expected_bitmap = tiny_samples.bitmap("title", query.predicates_on("title"))
        np.testing.assert_array_equal(
            featurized.table_features[0, encoding.num_tables :], expected_bitmap.astype(float)
        )

    def test_num_samples_fraction_in_unit_interval(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NUM_SAMPLES)
        featurized = featurizer.featurize(example_query())
        fractions = featurized.table_features[:, -1]
        assert ((fractions >= 0.0) & (fractions <= 1.0)).all()

    def test_predicate_vector_layout(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding, value_normalizer, _ = featurizer_parts
        featurized = featurizer.featurize(example_query())
        first_predicate = featurized.predicate_features[0]
        np.testing.assert_array_equal(
            first_predicate[: encoding.num_columns],
            encoding.column_one_hot("title", "production_year"),
        )
        np.testing.assert_array_equal(
            first_predicate[encoding.num_columns : encoding.num_columns + 3],
            encoding.operator_one_hot(Operator.GT),
        )
        assert first_predicate[-1] == pytest.approx(
            value_normalizer.normalize("title", "production_year", 2000)
        )

    def test_featurize_many(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        featurized = featurizer.featurize_many([example_query(), Query(tables=("title",))])
        assert len(featurized) == 2

    def test_featurize_ragged_rejects_empty_workload(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        with pytest.raises(ValueError):
            featurizer.featurize_ragged([])
