"""Tests of the hand-derived MSCN backward pass.

One float64 central-difference check covers every parameter of the model,
for each training loss, through the trainer's whole loss chain (sigmoid,
label denormalization, loss).  The batch has queries with empty join and
predicate sets, so the pooling backward of a zero-length segment is
covered too, and the check runs again on a batch whose elements share
feature rows within a query and across queries, which covers the
scatter-add of the pooled gradient onto distinct rows.  The remaining
tests pin properties of the kernel itself: dtypes, per-query separation,
linearity and no side effects.
"""

from __future__ import annotations

import numpy as np
import pytest
from reference_featurization import stack_sets

from repro.core.batching import RaggedDataset, RaggedSet, offsets_from_lengths
from repro.core.config import LossKind, MSCNConfig
from repro.core.model import MSCN, backward, forward
from repro.core.normalization import CardinalityNormalizer
from repro.core.trainer import MSCNTrainer

EPSILON = 1e-6


def make_batch(rng: np.random.Generator, normalizer: CardinalityNormalizer) -> RaggedDataset:
    # (tables, joins, predicates) per query; two queries have empty sets.
    shapes = [(1, 0, 0), (2, 1, 3), (3, 2, 0), (1, 0, 2), (2, 1, 1)]
    featurized = [
        (
            rng.normal(size=(tables, 4)),
            rng.normal(size=(joins, 3)),
            rng.normal(size=(predicates, 5)),
        )
        for tables, joins, predicates in shapes
    ]
    # Predictions start near exp(0.5 * log(1e4)) = 100; true cardinalities a
    # factor >= 5 away keep every q-error off the max kink (over == under),
    # and predictions far above 1 keep them off the clip kink.
    cardinalities = np.array([2.0, 900.0, 15.0, 3000.0, 1.5])
    return stack_sets(
        featurized,
        labels=normalizer.normalize(cardinalities),
        cardinalities=cardinalities,
    )


def make_shared_batch(
    rng: np.random.Generator, normalizer: CardinalityNormalizer
) -> RaggedDataset:
    """Like :func:`make_batch`, but elements share distinct feature rows.

    Per set, the element rows of each query; row 0 of every set repeats
    within a query and across queries, and row 3 of the tables is stored
    but no element uses it.
    """
    rows = {
        "tables": [[0], [1, 0], [0, 2, 0], [1], [2, 0]],
        "joins": [[], [0], [0, 1], [], [0]],
        "predicates": [[], [0, 1, 0], [], [2, 0], [1]],
    }
    widths = {"tables": 4, "joins": 3, "predicates": 5}
    distinct = {"tables": 4, "joins": 2, "predicates": 3}

    def ragged(name: str) -> RaggedSet:
        per_query = rows[name]
        return RaggedSet(
            features=rng.normal(size=(distinct[name], widths[name])),
            offsets=offsets_from_lengths([len(elements) for elements in per_query]),
            rows=np.array([row for elements in per_query for row in elements], dtype=np.int64),
        )

    cardinalities = np.array([2.0, 900.0, 15.0, 3000.0, 1.5])
    return RaggedDataset(
        tables=ragged("tables"),
        joins=ragged("joins"),
        predicates=ragged("predicates"),
        labels=normalizer.normalize(cardinalities).reshape(-1, 1),
        cardinalities=cardinalities.reshape(-1, 1),
    )


@pytest.mark.parametrize(
    "layout", [make_batch, make_shared_batch], ids=("per_query", "shared_rows")
)
@pytest.mark.parametrize("loss", list(LossKind))
def test_every_parameter_gradient_matches_central_differences(loss, layout):
    rng = np.random.default_rng(0)
    model = MSCN(4, 3, 5, hidden_units=6, rng=rng, dtype=np.float64)
    for layer in model.layers.values():
        layer.bias[...] = rng.normal(scale=0.1, size=layer.bias.shape)
    normalizer = CardinalityNormalizer.fit(np.array([1.0, 1e4]))
    trainer = MSCNTrainer(model, normalizer, MSCNConfig(loss=loss, dtype="float64"))
    batch = layout(rng, normalizer)
    assert batch.joins.lengths.min() == 0 and batch.predicates.lengths.min() == 0

    def loss_value() -> float:
        return trainer._loss(forward(batch, model.layers), batch)[0]

    trace: dict = {}
    _, grad = trainer._loss(forward(batch, model.layers, trace), batch)
    gradients = backward(trace, model.layers, grad)
    assert set(gradients) == {name for name, _ in model.named_parameters()}

    for name, parameter in model.named_parameters():
        analytic = gradients[name]
        assert analytic.shape == parameter.shape and analytic.dtype == np.float64
        numeric = np.zeros_like(parameter)
        for index in np.ndindex(parameter.shape):
            original = parameter[index]
            parameter[index] = original + EPSILON
            upper = loss_value()
            parameter[index] = original - EPSILON
            lower = loss_value()
            parameter[index] = original
            numeric[index] = (upper - lower) / (2 * EPSILON)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7, err_msg=name)


def make_trainer(loss, dtype="float64"):
    rng = np.random.default_rng(0)
    model = MSCN(4, 3, 5, hidden_units=6, rng=rng, dtype=dtype)
    for layer in model.layers.values():
        layer.bias[...] = rng.normal(scale=0.1, size=layer.bias.shape)
    normalizer = CardinalityNormalizer.fit(np.array([1.0, 1e4]))
    trainer = MSCNTrainer(model, normalizer, MSCNConfig(loss=loss, dtype=dtype))
    return trainer, make_batch(rng, normalizer)


def batch_gradients(trainer, batch) -> dict[str, np.ndarray]:
    trace: dict = {}
    _, grad = trainer._loss(forward(batch, trainer.model.layers, trace), batch)
    return backward(trace, trainer.model.layers, grad)


@pytest.mark.parametrize("attribute, prefix", [("joins", "join_mlp"), ("predicates", "predicate_mlp")])
def test_a_set_empty_in_every_query_gets_exactly_zero_gradient(attribute, prefix):
    """No element reaches the set's MLP, so none of its parameters can move."""
    trainer, batch = make_trainer(LossKind.Q_ERROR)
    empty = np.flatnonzero(getattr(batch, attribute).lengths == 0)
    gradients = batch_gradients(trainer, batch.take(empty))
    for kind in ("first", "second"):
        for parameter in ("weight", "bias"):
            name = f"{prefix}.{kind}.{parameter}"
            np.testing.assert_array_equal(gradients[name], np.zeros_like(gradients[name]), name)
    assert gradients["table_mlp.first.weight"].any()


@pytest.mark.parametrize("loss", list(LossKind))
def test_float32_model_gradients_stay_float32(loss):
    trainer, batch = make_trainer(loss, dtype="float32")
    gradients = batch_gradients(trainer, batch)
    for name, parameter in trainer.model.named_parameters():
        assert gradients[name].dtype == np.float32, name
        assert gradients[name].shape == parameter.shape, name
        assert np.isfinite(gradients[name]).all(), name


@pytest.mark.parametrize("loss", list(LossKind))
def test_batch_gradient_is_the_mean_of_per_query_gradients(loss):
    """Every loss is a mean over queries, and pooling keeps queries apart, so
    a batch's gradient is the average of its queries' gradients."""
    trainer, batch = make_trainer(loss)
    whole = batch_gradients(trainer, batch)
    singles = [batch_gradients(trainer, batch.take(np.array([query]))) for query in range(batch.size)]
    for name, gradient in whole.items():
        mean = sum(single[name] for single in singles) / batch.size
        np.testing.assert_allclose(gradient, mean, rtol=1e-10, atol=1e-14, err_msg=name)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_keeping_a_trace_does_not_change_the_forward(dtype):
    trainer, batch = make_trainer(LossKind.Q_ERROR, dtype=dtype)
    trace: dict = {}
    traced = forward(batch, trainer.model.layers, trace)
    assert traced.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(traced, forward(batch, trainer.model.layers))


def test_backward_leaves_the_trace_and_the_parameters_unchanged():
    trainer, batch = make_trainer(LossKind.Q_ERROR)
    trace: dict = {}
    _, grad = trainer._loss(forward(batch, trainer.model.layers, trace), batch)
    saved_trace = {
        key: tuple(np.copy(part) for part in value) if isinstance(value, tuple) else np.copy(value)
        for key, value in trace.items()
    }
    saved_state = trainer.model.state_dict()
    first = backward(trace, trainer.model.layers, grad)
    for key, value in saved_trace.items():
        parts = value if isinstance(value, tuple) else (value,)
        current = trace[key] if isinstance(trace[key], tuple) else (trace[key],)
        for before, after in zip(parts, current):
            np.testing.assert_array_equal(after, before, err_msg=key)
    for name, parameter in trainer.model.named_parameters():
        np.testing.assert_array_equal(parameter, saved_state[name], err_msg=name)
    second = backward(trace, trainer.model.layers, grad)
    for name in first:
        np.testing.assert_array_equal(first[name], second[name], err_msg=name)


def test_gradient_scales_exactly_with_the_upstream_gradient():
    """Backward is linear in dloss/dprediction; scaling by two is exact in
    floating point, so the parameter gradients double bit for bit."""
    trainer, batch = make_trainer(LossKind.Q_ERROR)
    trace: dict = {}
    _, grad = trainer._loss(forward(batch, trainer.model.layers, trace), batch)
    single = backward(trace, trainer.model.layers, grad)
    double = backward(trace, trainer.model.layers, 2.0 * grad)
    for name, gradient in single.items():
        np.testing.assert_array_equal(double[name], 2.0 * gradient, err_msg=name)
