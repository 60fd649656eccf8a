"""Tests of the MSCN architecture: invariances the set semantics must provide."""

from __future__ import annotations

import numpy as np
import pytest
from reference_featurization import stack_sets

from repro.core.model import MSCN, backward, forward


def make_model(table_width=4, join_width=3, predicate_width=5, hidden=16):
    return MSCN(
        table_feature_width=table_width,
        join_feature_width=join_width,
        predicate_feature_width=predicate_width,
        hidden_units=hidden,
        rng=np.random.default_rng(0),
    )


def ragged(*featurized):
    return stack_sets(list(featurized))


def random_featurized(rng, num_tables, num_joins, num_predicates,
                      table_width=4, join_width=3, predicate_width=5):
    return (
        rng.normal(size=(num_tables, table_width)),
        rng.normal(size=(num_joins, join_width)),
        rng.normal(size=(num_predicates, predicate_width)),
    )


class TestForward:
    def test_output_shape_and_range(self):
        rng = np.random.default_rng(1)
        model = make_model()
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 1, 0, 0))
        out = forward(batch, model.layers)
        assert out.shape == (2, 1)
        assert ((out > 0) & (out < 1)).all()

    def test_rejects_features_of_the_wrong_width(self):
        rng = np.random.default_rng(1)
        model = make_model()
        batch = ragged(random_featurized(rng, 2, 1, 3, table_width=6))
        with pytest.raises(ValueError):
            forward(batch, model.layers)

    def test_permutation_invariance_over_set_elements(self):
        """Reordering the elements of any input set must not change the output
        (the core property of the Deep Sets construction)."""
        rng = np.random.default_rng(2)
        model = make_model()
        featurized = random_featurized(rng, 3, 2, 4)
        permuted = tuple(features[::-1].copy() for features in featurized)
        original = forward(ragged(featurized), model.layers)
        swapped = forward(ragged(permuted), model.layers)
        np.testing.assert_allclose(original, swapped, atol=1e-12)

    def test_batch_neighbours_do_not_change_a_prediction(self):
        """A query batched alone and batched next to a larger query must
        produce the same output (the paper's padding invariance)."""
        rng = np.random.default_rng(3)
        model = make_model()
        small = random_featurized(rng, 1, 0, 1)
        large = random_featurized(rng, 3, 2, 5)
        alone = forward(ragged(small), model.layers)[0]
        batched = forward(ragged(small, large), model.layers)[0]
        np.testing.assert_allclose(alone, batched, atol=1e-12)

    def test_mean_pooling_is_set_size_invariant_for_duplicates(self):
        """With average pooling, duplicating every set element leaves the
        prediction unchanged."""
        rng = np.random.default_rng(4)
        model = make_model()
        base = random_featurized(rng, 2, 1, 2)
        doubled = tuple(np.vstack([features, features]) for features in base)
        np.testing.assert_allclose(
            forward(ragged(base), model.layers),
            forward(ragged(doubled), model.layers),
            atol=1e-12,
        )

    def test_sigmoid_is_stable_for_large_inputs(self):
        rng = np.random.default_rng(1)
        model = make_model()
        batch = ragged(random_featurized(rng, 1, 0, 0))
        with np.errstate(over="raise"):
            for bias, expected in ((1000.0, 1.0), (-1000.0, 0.0)):
                model.layers["output_final"].bias[...] = bias
                np.testing.assert_allclose(forward(batch, model.layers), [[expected]], atol=1e-12)

    def test_empty_join_set_is_handled(self):
        rng = np.random.default_rng(5)
        model = make_model()
        out = forward(ragged(random_featurized(rng, 1, 0, 0)), model.layers)
        assert np.isfinite(out).all()

    def test_different_inputs_produce_different_outputs(self):
        rng = np.random.default_rng(6)
        model = make_model()
        first = random_featurized(rng, 2, 1, 2)
        second = random_featurized(rng, 2, 1, 2)
        outputs = forward(ragged(first, second), model.layers)
        assert abs(outputs[0, 0] - outputs[1, 0]) > 1e-9


class TestTraining:
    def test_gradients_flow_to_every_parameter(self):
        rng = np.random.default_rng(7)
        model = make_model(hidden=8)
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 1, 0, 1))
        trace: dict = {}
        out = forward(batch, model.layers, trace)
        gradients = backward(trace, model.layers, 2.0 * out)  # d/dout of sum(out^2)
        for name, parameter in model.named_parameters():
            assert gradients[name].shape == parameter.shape, name
            assert np.isfinite(gradients[name]).all(), name
            assert gradients[name].any(), f"zero gradient for {name}"

    def test_parameter_names_are_the_state_dict_keys(self):
        """The names saved ``weights.npz`` files are keyed by."""
        model = make_model(hidden=8)
        names = [name for name, _ in model.named_parameters()]
        assert names == list(model.state_dict())
        layers = [
            f"{module}.{layer}"
            for module in ("table_mlp", "join_mlp", "predicate_mlp")
            for layer in ("first", "second")
        ] + ["output_hidden", "output_final"]
        assert names == [f"{layer}.{kind}" for layer in layers for kind in ("weight", "bias")]

    def test_dtype_casts_the_same_initial_draw(self):
        single = MSCN(4, 3, 5, hidden_units=8, rng=np.random.default_rng(0), dtype=np.float32)
        double = make_model(hidden=8)
        for (name, value), (_, expected) in zip(
            single.named_parameters(), double.named_parameters()
        ):
            assert value.dtype == np.float32, name
            np.testing.assert_array_equal(value, expected.astype(np.float32), err_msg=name)

    def test_parameter_count(self):
        hidden = 8
        model = make_model(hidden=hidden)
        set_mlps = sum(
            width * hidden + hidden + hidden * hidden + hidden for width in (4, 3, 5)
        )
        output = 3 * hidden * hidden + hidden + hidden + 1
        assert model.num_parameters() == set_mlps + output

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
        np.testing.assert_array_equal(
            forward(batch, source.layers), forward(batch, target.layers)
        )

    def test_load_state_dict_copies_into_the_existing_buffers(self):
        source = make_model()
        target = MSCN(4, 3, 5, hidden_units=16, rng=np.random.default_rng(99))
        buffers = dict(target.named_parameters())
        target.load_state_dict(source.state_dict())
        for name, parameter in target.named_parameters():
            assert parameter is buffers[name]

    def test_load_state_dict_rejects_missing_keys(self):
        model = make_model()
        state = model.state_dict()
        state.pop("table_mlp.first.weight")
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_wrong_shapes(self):
        model = make_model()
        state = model.state_dict()
        state["table_mlp.first.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_rejects_unexpected_keys(self):
        model = make_model()
        state = model.state_dict()
        state["table_mlp.third.weight"] = np.zeros((16, 16))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_keeps_the_compute_dtype(self):
        """A float64 state (as saved by a float64 model) loads into a float32
        model without changing its dtype."""
        source = make_model()
        target = MSCN(4, 3, 5, hidden_units=16, rng=np.random.default_rng(99), dtype=np.float32)
        target.load_state_dict(source.state_dict())
        for (name, value), (_, expected) in zip(
            target.named_parameters(), source.named_parameters()
        ):
            assert value.dtype == np.float32, name
            np.testing.assert_array_equal(value, expected.astype(np.float32), err_msg=name)

    def test_state_dict_is_a_copy(self):
        model = make_model()
        state = model.state_dict()
        state["output_final.bias"][...] = 42.0
        assert model.layers["output_final"].bias[0] == 0.0


class TestForwardContract:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_float64_features_run_in_the_weights_dtype(self, dtype):
        rng = np.random.default_rng(9)
        model = MSCN(4, 3, 5, hidden_units=8, rng=np.random.default_rng(0), dtype=dtype)
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 1, 0, 0))
        assert batch.tables.features.dtype == np.float64
        trace: dict = {}
        out = forward(batch, model.layers, trace)
        assert out.dtype == dtype
        assert trace["hidden"].dtype == dtype and trace["prediction"].dtype == dtype
        for prefix in ("table_mlp", "join_mlp", "predicate_mlp"):
            assert all(part.dtype == dtype for part in trace[prefix][:3]), prefix

    def test_forward_does_not_modify_the_dataset(self):
        rng = np.random.default_rng(10)
        model = make_model()
        batch = ragged(random_featurized(rng, 2, 1, 3), random_featurized(rng, 3, 2, 0))
        before = [
            (ragged_set.features.copy(), ragged_set.offsets.copy(), ragged_set.inv_counts.copy())
            for ragged_set in (batch.tables, batch.joins, batch.predicates)
        ]
        forward(batch, model.layers, {})
        for ragged_set, (features, offsets, inv_counts) in zip(
            (batch.tables, batch.joins, batch.predicates), before
        ):
            np.testing.assert_array_equal(ragged_set.features, features)
            np.testing.assert_array_equal(ragged_set.offsets, offsets)
            np.testing.assert_array_equal(ragged_set.inv_counts, inv_counts)

    def test_reordering_queries_reorders_predictions(self):
        rng = np.random.default_rng(11)
        model = make_model()
        queries = [random_featurized(rng, 1 + i % 3, i % 2, i % 4) for i in range(6)]
        forwards = forward(ragged(*queries), model.layers)[:, 0]
        backwards = forward(ragged(*queries[::-1]), model.layers)[:, 0]
        np.testing.assert_allclose(backwards, forwards[::-1], atol=1e-12)
