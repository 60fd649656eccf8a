"""Tests of value and cardinality normalization (invertibility properties).

``QueryFeaturizer.featurize_ragged`` applies the value bounds; its clamping
and single-valued-column rules are tested in ``test_featurization.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import CardinalityNormalizer, ValueNormalizer


class TestValueNormalizer:
    def test_from_database_covers_non_key_columns(self, tiny_database):
        normalizer = ValueNormalizer.from_database(tiny_database)
        minimum, maximum = normalizer.bounds("title", "production_year")
        years = tiny_database.table("title").column("production_year")
        assert minimum == years.min() and maximum == years.max()

    def test_unknown_column_raises(self, tiny_database):
        normalizer = ValueNormalizer.from_database(tiny_database)
        with pytest.raises(KeyError):
            normalizer.bounds("title", "missing")

    def test_to_dict_roundtrip(self, tiny_database):
        normalizer = ValueNormalizer.from_database(tiny_database)
        clone = ValueNormalizer(normalizer.to_dict())
        assert clone.bounds("title", "kind_id") == normalizer.bounds("title", "kind_id")


class TestCardinalityNormalizer:
    def test_fit_rejects_empty_or_invalid_labels(self):
        with pytest.raises(ValueError):
            CardinalityNormalizer.fit(np.array([]))
        with pytest.raises(ValueError):
            CardinalityNormalizer.fit(np.array([0.5, 2.0]))

    def test_normalized_training_labels_span_unit_interval(self):
        cardinalities = np.array([1.0, 10.0, 100.0, 1000.0])
        normalizer = CardinalityNormalizer.fit(cardinalities)
        labels = normalizer.normalize(cardinalities)
        assert labels.min() == pytest.approx(0.0)
        assert labels.max() == pytest.approx(1.0)

    def test_degenerate_label_set_stays_invertible(self):
        normalizer = CardinalityNormalizer.fit(np.array([42.0, 42.0]))
        assert normalizer.denormalize(normalizer.normalize(42.0)) == pytest.approx(42.0)

    def test_log_transform_evens_out_magnitudes(self):
        normalizer = CardinalityNormalizer.fit(np.array([1.0, 1e6]))
        middle = normalizer.normalize(1e3)
        assert middle == pytest.approx(0.5, abs=1e-6)

    @given(
        st.lists(st.floats(1.0, 1e9), min_size=2, max_size=50),
        st.floats(1.0, 1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_normalization_roundtrip_property(self, training, probe):
        normalizer = CardinalityNormalizer.fit(np.array(training))
        recovered = float(normalizer.denormalize(normalizer.normalize(probe)))
        assert recovered == pytest.approx(probe, rel=1e-6)

    def test_denormalize_clamps_to_at_least_one_tuple(self):
        normalizer = CardinalityNormalizer.fit(np.array([10.0, 1000.0]))
        assert float(normalizer.denormalize(-5.0)) >= 1.0
