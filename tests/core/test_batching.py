"""Tests of the ragged (CSR) containers built from per-query featurizations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import RaggedDataset, RaggedSet, iterate_ragged_minibatches
from repro.core.featurization import FeaturizedQuery


def make_featurized(num_tables, num_joins, num_predicates, table_width=3, join_width=2,
                    predicate_width=4, fill=1.0):
    return FeaturizedQuery(
        table_features=np.full((num_tables, table_width), fill),
        join_features=np.full((num_joins, join_width), fill),
        predicate_features=np.full((num_predicates, predicate_width), fill),
    )


class TestFromFeaturized:
    def test_stacks_real_elements_with_offsets(self):
        dataset = RaggedDataset.from_featurized(
            [make_featurized(1, 0, 2), make_featurized(3, 2, 0)]
        )
        assert dataset.size == len(dataset) == 2
        assert dataset.tables.features.shape == (4, 3)
        np.testing.assert_array_equal(dataset.tables.offsets, [0, 1, 4])
        np.testing.assert_array_equal(dataset.joins.offsets, [0, 0, 2])
        np.testing.assert_array_equal(dataset.predicates.offsets, [0, 2, 2])

    def test_empty_sets_are_zero_length_segments(self):
        dataset = RaggedDataset.from_featurized([make_featurized(1, 0, 0)])
        assert dataset.joins.features.shape == (0, 2)
        np.testing.assert_array_equal(dataset.joins.lengths, [0])
        np.testing.assert_array_equal(dataset.joins.inv_counts, [[1.0]])

    def test_labels_and_cardinalities_are_column_vectors(self):
        dataset = RaggedDataset.from_featurized(
            [make_featurized(1, 0, 0), make_featurized(1, 0, 0)],
            labels=np.array([0.1, 0.2]),
            cardinalities=np.array([10.0, 20.0]),
        )
        assert dataset.labels.shape == (2, 1)
        assert dataset.cardinalities.shape == (2, 1)

    def test_rejects_empty_workload(self):
        with pytest.raises(ValueError):
            RaggedDataset.from_featurized([])

    def test_rejects_mismatched_label_length(self):
        with pytest.raises(ValueError):
            RaggedDataset.from_featurized(
                [make_featurized(1, 0, 0)], labels=np.array([0.1, 0.2])
            )

    def test_rejects_mismatched_cardinality_length(self):
        with pytest.raises(ValueError):
            RaggedDataset.from_featurized(
                [make_featurized(1, 0, 0)], cardinalities=np.array([1.0, 2.0])
            )


class TestTake:
    def make_dataset(self):
        featurized = [make_featurized(1, 0, 2, fill=1.0), make_featurized(3, 2, 0, fill=2.0),
                      make_featurized(2, 1, 1, fill=3.0)]
        return RaggedDataset.from_featurized(
            featurized,
            labels=np.array([0.1, 0.2, 0.3]),
            cardinalities=np.array([10.0, 20.0, 30.0]),
        )

    def test_take_gathers_all_sets_and_columns(self):
        batch = self.make_dataset().take(np.array([2, 0]))
        assert batch.size == 2
        np.testing.assert_array_equal(batch.tables.offsets, [0, 2, 3])
        np.testing.assert_array_equal(batch.tables.features[:, 0], [3.0, 3.0, 1.0])
        np.testing.assert_array_equal(batch.labels.reshape(-1), [0.3, 0.1])
        np.testing.assert_array_equal(batch.cardinalities.reshape(-1), [30.0, 10.0])

    def test_one_dimensional_overrides_are_reshaped_to_columns(self):
        batch = self.make_dataset().take(
            np.array([0, 1]), labels=np.array([0.5, 0.25]), cardinalities=np.array([5.0, 6.0])
        )
        assert batch.labels.shape == (2, 1)
        assert batch.cardinalities.shape == (2, 1)

    def test_mismatched_override_length_raises(self):
        with pytest.raises(ValueError):
            self.make_dataset().take(np.array([0, 1]), labels=np.array([9.0]))


class TestMinibatchIteration:
    def test_shuffles_with_rng(self):
        dataset = RaggedDataset.from_featurized([make_featurized(1, 0, 0) for _ in range(20)])
        labels = np.arange(20, dtype=np.float64)
        cards = labels + 1
        ordered = [b.labels.reshape(-1).tolist() for b in
                   iterate_ragged_minibatches(dataset, labels, cards, batch_size=20)]
        shuffled = [b.labels.reshape(-1).tolist() for b in
                    iterate_ragged_minibatches(dataset, labels, cards, batch_size=20,
                                               rng=np.random.default_rng(1))]
        assert ordered[0] == labels.tolist()
        assert shuffled[0] != labels.tolist()
        assert sorted(shuffled[0]) == labels.tolist()

    def test_rejects_non_positive_batch_size(self):
        dataset = RaggedDataset.from_featurized([make_featurized(1, 0, 0)])
        with pytest.raises(ValueError):
            list(iterate_ragged_minibatches(dataset, np.array([1.0]), np.array([1.0]),
                                            batch_size=0))


class TestDistinctRows:
    """A set stores distinct feature rows; ``rows`` maps elements to them."""

    def make_set(self):
        # Three queries over rows a, b, c: [a, b], [b], [c, a, b].
        features = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        rows = np.array([0, 1, 1, 2, 0, 1])
        return RaggedSet(features, offsets=np.array([0, 2, 3, 6]), rows=rows)

    def test_from_featurized_stores_one_row_per_element(self):
        dataset = RaggedDataset.from_featurized(
            [make_featurized(2, 1, 0), make_featurized(1, 0, 3)]
        )
        np.testing.assert_array_equal(dataset.tables.rows, [0, 1, 2])
        np.testing.assert_array_equal(dataset.predicates.rows, [0, 1, 2])
        assert dataset.joins.rows.dtype == np.int64

    def test_take_keeps_its_own_rows_in_first_seen_order(self):
        taken = self.make_set().take(np.array([2, 1]))
        # Elements c, a, b, b: rows c, a, b in that order.
        np.testing.assert_array_equal(taken.features, [[2.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(taken.rows, [0, 1, 2, 2])
        np.testing.assert_array_equal(taken.offsets, [0, 3, 4])

    def test_partial_slice_drops_unused_rows(self):
        ragged_set = self.make_set()
        part = ragged_set.slice(1, 2)
        np.testing.assert_array_equal(part.features, [[0.0, 1.0]])
        np.testing.assert_array_equal(part.rows, [0])
        np.testing.assert_array_equal(part.offsets, [0, 1])
        assert ragged_set.slice(0, 3) is ragged_set

    @pytest.mark.parametrize(
        "rows",
        [np.array([0, 1, 3]), np.array([-1, 0, 1]), np.array([[0, 1, 2]]), np.array([0, 1])],
        ids=("past_the_end", "negative", "two_dimensional", "fewer_than_the_offsets"),
    )
    def test_rejects_bad_rows(self, rows):
        with pytest.raises(ValueError):
            RaggedSet(np.ones((3, 2)), offsets=np.array([0, 1, 3]), rows=rows)
