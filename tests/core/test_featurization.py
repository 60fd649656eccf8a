"""Tests of query featurization (Sections 3.1 and 3.4) through ``featurize_ragged``."""

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


def literal_features(featurizer, literals) -> list[float]:
    """The normalized literal of ``title.production_year = literal``, per literal."""
    queries = [
        Query(("title",), (), (Predicate("title", "production_year", Operator.EQ, int(v)),))
        for v in literals
    ]
    predicates = featurizer.featurize_ragged(queries).predicates
    return predicates.features[predicates.rows, -1].tolist()


def one_row_per_element(dataset):
    """Each set's features with one row per element, in query order."""
    return {
        name: getattr(dataset, name).features[getattr(dataset, name).rows]
        for name in ("tables", "joins", "predicates")
    }


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
        dataset = featurizer.featurize_ragged([example_query()])
        np.testing.assert_array_equal(dataset.tables.lengths, [2])


class TestFeatureContents:
    def test_set_sizes_match_query(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        dataset = featurizer.featurize_ragged([example_query()])
        np.testing.assert_array_equal(dataset.tables.lengths, [2])
        np.testing.assert_array_equal(dataset.joins.lengths, [1])
        np.testing.assert_array_equal(dataset.predicates.lengths, [2])

    def test_single_table_query_has_empty_join_set(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        dataset = featurizer.featurize_ragged([Query(tables=("title",))])
        np.testing.assert_array_equal(dataset.joins.lengths, [0])
        assert dataset.joins.features.shape == (0, featurizer.join_feature_width)
        np.testing.assert_array_equal(dataset.predicates.lengths, [0])

    def test_table_one_hot_embedded_in_table_vector(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding = featurizer_parts[0]
        tables = one_row_per_element(featurizer.featurize_ragged([example_query()]))["tables"]
        expected = np.zeros(encoding.num_tables)
        expected[encoding.table_index["title"]] = 1.0
        np.testing.assert_array_equal(tables[0], expected)

    def test_bitmap_appended_to_table_vector(self, featurizer_parts, tiny_samples):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        encoding = featurizer_parts[0]
        query = example_query()
        tables = one_row_per_element(featurizer.featurize_ragged([query]))["tables"]
        expected_bitmap = tiny_samples.bitmap("title", query.predicates_on("title"))
        np.testing.assert_array_equal(
            tables[0, encoding.num_tables :], expected_bitmap.astype(float)
        )

    def test_num_samples_fraction_in_unit_interval(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NUM_SAMPLES)
        tables = one_row_per_element(featurizer.featurize_ragged([example_query()]))["tables"]
        fractions = tables[:, -1]
        assert ((fractions >= 0.0) & (fractions <= 1.0)).all()

    def test_predicate_vector_layout(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        encoding, value_normalizer, _ = featurizer_parts
        dataset = featurizer.featurize_ragged([example_query()])
        first_predicate = one_row_per_element(dataset)["predicates"][0]
        column = np.zeros(encoding.num_columns)
        column[encoding.column_index["title.production_year"]] = 1.0
        operator = np.zeros(encoding.num_operators)
        operator[encoding.operator_index[Operator.GT.value]] = 1.0
        np.testing.assert_array_equal(first_predicate[: encoding.num_columns], column)
        np.testing.assert_array_equal(
            first_predicate[encoding.num_columns : encoding.num_columns + 3], operator
        )
        minimum, maximum = value_normalizer.bounds("title", "production_year")
        assert first_predicate[-1] == pytest.approx((2000 - minimum) / (maximum - minimum))

    def test_literals_are_clamped_to_the_column_range(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.NO_SAMPLES)
        low, high = featurizer_parts[1].bounds("title", "production_year")
        literals = [low, high, high + 100, low - 100]
        assert literal_features(featurizer, literals) == [0.0, 1.0, 1.0, 0.0]

    def test_single_valued_column_literals_are_zero(self, featurizer_parts):
        encoding, value_normalizer, _ = featurizer_parts
        bounds = {**value_normalizer.to_dict(), "title.production_year": (5.0, 5.0)}
        featurizer = QueryFeaturizer(
            encoding, ValueNormalizer(bounds), variant=FeaturizationVariant.NO_SAMPLES
        )
        assert literal_features(featurizer, [5, 1, 9]) == [0.0, 0.0, 0.0]

    def test_featurize_ragged_keeps_one_segment_per_query(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        dataset = featurizer.featurize_ragged([example_query(), Query(tables=("title",))])
        assert len(dataset) == 2

    def test_featurize_ragged_rejects_empty_workload(self, featurizer_parts):
        featurizer = make_featurizer(featurizer_parts, FeaturizationVariant.BITMAPS)
        with pytest.raises(ValueError):
            featurizer.featurize_ragged([])
