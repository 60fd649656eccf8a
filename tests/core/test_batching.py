"""Tests of the ragged (CSR) containers, on hand-made per-query feature sets."""

from __future__ import annotations

import numpy as np
import pytest
from reference_featurization import stack_sets

from repro.core.batching import RaggedDataset, RaggedSet, iterate_ragged_minibatches


def make_sets(num_tables, num_joins, num_predicates, table_width=3, join_width=2,
              predicate_width=4, fill=1.0):
    return (
        np.full((num_tables, table_width), fill),
        np.full((num_joins, join_width), fill),
        np.full((num_predicates, predicate_width), fill),
    )


class TestStackedLayout:
    def test_stacks_real_elements_with_offsets(self):
        dataset = stack_sets([make_sets(1, 0, 2), make_sets(3, 2, 0)])
        assert dataset.size == len(dataset) == 2
        assert dataset.tables.features.shape == (4, 3)
        np.testing.assert_array_equal(dataset.tables.offsets, [0, 1, 4])
        np.testing.assert_array_equal(dataset.joins.offsets, [0, 0, 2])
        np.testing.assert_array_equal(dataset.predicates.offsets, [0, 2, 2])

    def test_empty_sets_are_zero_length_segments(self):
        dataset = stack_sets([make_sets(1, 0, 0)])
        assert dataset.joins.features.shape == (0, 2)
        np.testing.assert_array_equal(dataset.joins.lengths, [0])
        np.testing.assert_array_equal(dataset.joins.inv_counts, [[1.0]])

    def test_inverse_counts_follow_the_feature_dtype(self):
        dataset = stack_sets([make_sets(1, 0, 2), make_sets(4, 1, 0)], dtype=np.float32)
        assert dataset.tables.inv_counts.dtype == np.float32
        np.testing.assert_array_equal(dataset.tables.inv_counts, [[1.0], [0.25]])
        np.testing.assert_array_equal(dataset.predicates.inv_counts, [[0.5], [1.0]])

    def test_rejects_sets_of_different_query_counts(self):
        dataset = stack_sets([make_sets(1, 0, 0), make_sets(1, 0, 0)])
        with pytest.raises(ValueError, match="segment counts disagree"):
            RaggedDataset(dataset.tables, dataset.joins.slice(0, 1), dataset.predicates)

    def test_rejects_label_columns_of_another_query_count(self):
        dataset = stack_sets([make_sets(1, 0, 0), make_sets(1, 0, 0)])
        with pytest.raises(ValueError, match="labels length"):
            RaggedDataset(dataset.tables, dataset.joins, dataset.predicates,
                          labels=np.zeros((5, 1)), cardinalities=np.ones((7, 1)))
        with pytest.raises(ValueError, match="cardinalities length"):
            RaggedDataset(dataset.tables, dataset.joins, dataset.predicates,
                          cardinalities=np.ones((7, 1)))

    def test_label_columns_are_stored_as_float64_columns(self):
        dataset = stack_sets([make_sets(1, 0, 0), make_sets(1, 0, 0)])
        dataset = RaggedDataset(dataset.tables, dataset.joins, dataset.predicates,
                                labels=[0.5, 0.25], cardinalities=np.array([5, 6]))
        assert dataset.labels.shape == dataset.cardinalities.shape == (2, 1)
        assert dataset.cardinalities.dtype == np.float64
        np.testing.assert_array_equal(dataset.slice(1, 2).labels, [[0.25]])

    def test_rejects_decreasing_offsets(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            RaggedSet(np.ones((2, 2)), offsets=np.array([0, 2, 1, 2]), rows=np.array([0, 1]))

    def test_rows_are_stored_as_contiguous_int64(self):
        ragged_set = RaggedSet(np.ones((2, 2)), offsets=np.array([0, 2]), rows=[1, 0])
        assert ragged_set.rows.dtype == np.int64 and ragged_set.rows.flags.c_contiguous


class TestTake:
    def make_dataset(self):
        featurized = [make_sets(1, 0, 2, fill=1.0), make_sets(3, 2, 0, fill=2.0),
                      make_sets(2, 1, 1, fill=3.0)]
        return stack_sets(
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
        dataset = stack_sets([make_sets(1, 0, 0) for _ in range(20)])
        labels = np.arange(20, dtype=np.float64)
        cards = labels + 1
        shuffled = [b.labels.reshape(-1).tolist() for b in
                    iterate_ragged_minibatches(dataset, labels, cards, batch_size=20,
                                               rng=np.random.default_rng(1))]
        assert shuffled[0] != labels.tolist()
        assert sorted(shuffled[0]) == labels.tolist()

    def test_rejects_non_positive_batch_size(self):
        dataset = stack_sets([make_sets(1, 0, 0)])
        with pytest.raises(ValueError):
            list(iterate_ragged_minibatches(dataset, np.array([1.0]), np.array([1.0]),
                                            batch_size=0, rng=np.random.default_rng(0)))


class TestDistinctRows:
    """A set stores distinct feature rows; ``rows`` maps elements to them."""

    def make_set(self):
        # Three queries over rows a, b, c: [a, b], [b], [c, a, b].
        features = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        rows = np.array([0, 1, 1, 2, 0, 1])
        return RaggedSet(features, offsets=np.array([0, 2, 3, 6]), rows=rows)

    def test_take_of_one_row_per_element_keeps_that_layout(self):
        dataset = stack_sets([make_sets(2, 1, 0), make_sets(1, 0, 3), make_sets(1, 1, 1)])
        taken = dataset.take(np.array([2, 0]))
        np.testing.assert_array_equal(taken.tables.rows, [0, 1, 2])
        np.testing.assert_array_equal(taken.joins.rows, [0, 1])
        assert taken.joins.rows.dtype == np.int64

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
