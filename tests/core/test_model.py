"""Tests of the MSCN architecture: invariances the set semantics must provide."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batching import RaggedDataset
from repro.core.featurization import FeaturizedQuery
from repro.core.model import MSCN
from repro.nn.tensor import no_grad


def make_model(table_width=4, join_width=3, predicate_width=5, hidden=16, pooling="mean"):
    return MSCN(
        table_feature_width=table_width,
        join_feature_width=join_width,
        predicate_feature_width=predicate_width,
        hidden_units=hidden,
        rng=np.random.default_rng(0),
        pooling=pooling,
    )


def ragged(*featurized):
    return RaggedDataset.from_featurized(list(featurized))


def random_featurized(rng, num_tables, num_joins, num_predicates,
                      table_width=4, join_width=3, predicate_width=5):
    return FeaturizedQuery(
        table_features=rng.normal(size=(num_tables, table_width)),
        join_features=rng.normal(size=(num_joins, join_width)),
        predicate_features=rng.normal(size=(num_predicates, predicate_width)),
    )


class TestForward:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(1)
        model = make_model()
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 1, 0, 0))
        with no_grad():
            out = model.forward_ragged(batch)
        assert out.shape == (2, 1)
        assert ((out.numpy() > 0) & (out.numpy() < 1)).all()

    def test_rejects_unknown_pooling(self):
        with pytest.raises(ValueError):
            make_model(pooling="max")

    def test_permutation_invariance_over_set_elements(self):
        """Reordering the elements of any input set must not change the output
        (the core property of the Deep Sets construction)."""
        rng = np.random.default_rng(2)
        model = make_model()
        featurized = random_featurized(rng, 3, 2, 4)
        permuted = FeaturizedQuery(
            table_features=featurized.table_features[::-1].copy(),
            join_features=featurized.join_features[::-1].copy(),
            predicate_features=featurized.predicate_features[::-1].copy(),
        )
        with no_grad():
            original = model.forward_ragged(ragged(featurized)).numpy()
            swapped = model.forward_ragged(ragged(permuted)).numpy()
        np.testing.assert_allclose(original, swapped, atol=1e-12)

    def test_batch_neighbours_do_not_change_a_prediction(self):
        """A query batched alone and batched next to a larger query must
        produce the same output (the paper's padding invariance)."""
        rng = np.random.default_rng(3)
        model = make_model()
        small = random_featurized(rng, 1, 0, 1)
        large = random_featurized(rng, 3, 2, 5)
        with no_grad():
            alone = model.forward_ragged(ragged(small)).numpy()[0]
            batched = model.forward_ragged(ragged(small, large)).numpy()[0]
        np.testing.assert_allclose(alone, batched, atol=1e-12)

    def test_mean_pooling_is_set_size_invariant_for_duplicates(self):
        """With average pooling, duplicating every set element leaves the
        prediction unchanged (it would not with sum pooling)."""
        rng = np.random.default_rng(4)
        mean_model = make_model(pooling="mean")
        sum_model = make_model(pooling="sum")
        base = random_featurized(rng, 2, 1, 2)
        doubled = FeaturizedQuery(
            table_features=np.vstack([base.table_features, base.table_features]),
            join_features=np.vstack([base.join_features, base.join_features]),
            predicate_features=np.vstack([base.predicate_features, base.predicate_features]),
        )
        with no_grad():
            mean_base = mean_model.forward_ragged(ragged(base)).numpy()
            mean_doubled = mean_model.forward_ragged(ragged(doubled)).numpy()
            sum_base = sum_model.forward_ragged(ragged(base)).numpy()
            sum_doubled = sum_model.forward_ragged(ragged(doubled)).numpy()
        np.testing.assert_allclose(mean_base, mean_doubled, atol=1e-12)
        assert not np.allclose(sum_base, sum_doubled, atol=1e-6)

    def test_empty_join_set_is_handled(self):
        rng = np.random.default_rng(5)
        model = make_model()
        featurized = random_featurized(rng, 1, 0, 0)
        with no_grad():
            out = model.forward_ragged(ragged(featurized)).numpy()
        assert np.isfinite(out).all()

    def test_different_inputs_produce_different_outputs(self):
        rng = np.random.default_rng(6)
        model = make_model()
        first = random_featurized(rng, 2, 1, 2)
        second = random_featurized(rng, 2, 1, 2)
        with no_grad():
            outputs = model.forward_ragged(ragged(first, second)).numpy()
        assert abs(outputs[0, 0] - outputs[1, 0]) > 1e-9


class TestTraining:
    def test_gradients_flow_to_every_parameter(self):
        rng = np.random.default_rng(7)
        model = make_model(hidden=8)
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 1, 0, 1))
        out = model.forward_ragged(batch)
        (out * out).sum().backward()
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, f"no gradient for {name}"
            assert np.isfinite(parameter.grad).all()

    def test_parameter_count_scales_with_hidden_units(self):
        small = make_model(hidden=8)
        large = make_model(hidden=32)
        assert large.num_parameters() > small.num_parameters()

    def test_state_dict_roundtrip_preserves_predictions(self):
        rng = np.random.default_rng(8)
        source = make_model()
        target = MSCN(4, 3, 5, hidden_units=16, rng=np.random.default_rng(99))
        target.load_state_dict(source.state_dict())
        batch = ragged(random_featurized(rng, 2, 2, 2))
        with no_grad():
            np.testing.assert_array_equal(
                source.forward_ragged(batch).numpy(), target.forward_ragged(batch).numpy()
            )
