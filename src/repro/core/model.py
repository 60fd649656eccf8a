"""The multi-set convolutional network (MSCN) architecture (Section 3.2).

The model has one two-layer MLP per set (tables, joins, predicates) applied to
every set element with shared parameters; element outputs are averaged per
set, the three set representations are concatenated, and a
final two-layer output MLP with a sigmoid produces a scalar in [0, 1] — the
normalized cardinality prediction::

    w_T   = 1/|T_q| * sum_t MLP_T(v_t)
    w_J   = 1/|J_q| * sum_j MLP_J(v_j)
    w_P   = 1/|P_q| * sum_p MLP_P(v_p)
    w_out = MLP_out([w_T, w_J, w_P])

Average pooling is used so the magnitude of the set representation does not
depend on the set size, which eases generalization to unseen set sizes.

MSCN is one fixed graph, so it is written once, as plain numpy.
:func:`forward` runs it over the ragged layout of
:class:`~repro.core.batching.RaggedDataset` — the per-element MLPs see each
distinct set element once, and pooling is a segment reduction over the CSR
offsets, gathered through each set's ``rows``, the paper's masked average
without any padded slots — against any mapping of layer names to
``(weight, bias)`` layers: the live :attr:`MSCN.layers` during training, an
inference engine's weight snapshot when serving.  Because the mean is
linear, ``MLP_out``'s first layer is split by set and applied before
pooling::

    hidden = relu(sum_S 1/|S_q| * sum_s MLP_S(v_s) @ W_S + b)

where ``W_S`` is set ``S``'s slice of ``output_hidden.weight``; each distinct
row is projected once.  :func:`backward` is its hand-derived gradient, used
by the trainer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Mapping

import numpy as np

from repro.nn.functional import segment_sum_array
from repro.nn.layers import Linear

__all__ = ["MSCN", "SET_MODULES", "forward", "backward"]

#: The set modules, as ``(RaggedDataset attribute, layer-name prefix)``.
SET_MODULES = (("tables", "table_mlp"), ("joins", "join_mlp"), ("predicates", "predicate_mlp"))


class MSCN:
    """Multi-set convolutional network for cardinality estimation.

    Parameters
    ----------
    table_feature_width, join_feature_width, predicate_feature_width:
        Widths of the per-element feature vectors produced by the featurizer.
    hidden_units:
        Width ``d`` of all hidden layers and set representations.
    rng:
        Generator used for weight initialization (reproducible training runs).
    dtype:
        Parameter (and therefore compute) dtype; float64 by default,
        estimators pass their configured ``MSCNConfig.dtype``.

    :attr:`layers` maps each layer's name (``table_mlp.first``, ...,
    ``output_final``) to its :class:`~repro.nn.layers.Linear`; parameter
    names append ``.weight`` / ``.bias``, which are the ``state_dict`` keys.
    Training and :meth:`load_state_dict` update the parameter arrays in
    place; a trainer's optimizer keeps updating the arrays it was built
    with, so code that rebinds a layer's arrays needs a new trainer.
    """

    def __init__(
        self,
        table_feature_width: int,
        join_feature_width: int,
        predicate_feature_width: int,
        hidden_units: int = 256,
        rng: np.random.Generator | None = None,
        dtype: np.dtype | str = np.float64,
    ):
        rng = rng if rng is not None else np.random.default_rng()
        self.table_feature_width = table_feature_width
        self.join_feature_width = join_feature_width
        self.predicate_feature_width = predicate_feature_width
        self.hidden_units = hidden_units
        self.dtype = np.dtype(dtype)
        self.layers: dict[str, Linear] = {}
        widths = (table_feature_width, join_feature_width, predicate_feature_width)
        for (_, prefix), width in zip(SET_MODULES, widths):
            self.layers[prefix + ".first"] = Linear(width, hidden_units, rng)
            self.layers[prefix + ".second"] = Linear(hidden_units, hidden_units, rng)
        self.layers["output_hidden"] = Linear(3 * hidden_units, hidden_units, rng)
        self.layers["output_final"] = Linear(hidden_units, 1, rng, initializer="xavier")
        for layer in self.layers.values():
            layer.weight = layer.weight.astype(self.dtype)
            layer.bias = layer.bias.astype(self.dtype)

    def named_parameters(self) -> Iterator[tuple[str, np.ndarray]]:
        """``(name, array)`` for every parameter, in layer order."""
        for name, layer in self.layers.items():
            yield name + ".weight", layer.weight
            yield name + ".bias", layer.bias

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(parameter.size for _, parameter in self.named_parameters())

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, parameter.copy()) for name, parameter in self.named_parameters())

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            # Keep the parameter's compute dtype (the model may run float32).
            value = np.asarray(state[name], dtype=parameter.dtype)
            if value.shape != parameter.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {parameter.shape}, "
                    f"state provides {value.shape}"
                )
            # Copy into the existing buffer so references held by the
            # optimizer and inference engines stay valid.
            np.copyto(parameter, value)


def forward(dataset, layers: Mapping, trace: dict | None = None) -> np.ndarray:
    """MSCN forward pass over a ragged dataset; returns shape ``(n, 1)``.

    ``layers`` maps the layer names of :attr:`MSCN.layers` to objects with
    ``weight`` and ``bias`` arrays.  Computation runs in the weights' dtype;
    the features are cast to it first.  When ``trace`` is a dict, the
    activations :func:`backward` needs are stored in it.

    Each set's MLP runs on the set's distinct feature rows only.  Mean
    pooling is linear, so every distinct row is then also multiplied by its
    set's slice of ``output_hidden.weight`` before pooling: the pooled,
    already projected sets are summed with the bias, and the concatenated
    ``[w_T, w_J, w_P]`` is never formed.
    """
    final = layers["output_final"]
    output_hidden = layers["output_hidden"]
    dtype = final.weight.dtype
    hidden_units = final.weight.shape[0]
    hidden = np.zeros((dataset.size, hidden_units), dtype=dtype)
    for index, (attribute, prefix) in enumerate(SET_MODULES):
        ragged_set = getattr(dataset, attribute)
        features = np.ascontiguousarray(ragged_set.features, dtype=dtype)
        first = _linear_relu(features, layers[prefix + ".first"])
        second = _linear_relu(first, layers[prefix + ".second"])
        weight = output_hidden.weight[index * hidden_units : (index + 1) * hidden_units]
        pooled = segment_sum_array(
            second @ weight, ragged_set.offsets, ragged_set.lengths, rows=ragged_set.rows
        )
        inv_counts = ragged_set.inv_counts.astype(dtype, copy=False)
        pooled *= inv_counts
        hidden += pooled
        if trace is not None:
            trace[prefix] = (
                features, first, second, ragged_set.rows, ragged_set.lengths, inv_counts
            )

    hidden += output_hidden.bias
    np.maximum(hidden, 0.0, out=hidden)
    output = hidden @ final.weight
    output += final.bias
    prediction = _stable_sigmoid(output)
    if trace is not None:
        trace.update(hidden=hidden, prediction=prediction)
    return prediction


def backward(trace: dict, layers: Mapping, grad: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient of every parameter, given ``grad`` = dloss/dprediction.

    ``trace`` is the dict a :func:`forward` call over the same ``layers``
    filled; the result is keyed by parameter name (``table_mlp.first.weight``,
    ...).  ReLU masks are read off the stored activations (``relu(h) > 0``
    exactly where ``h > 0``).  The pooled gradient is repeated over each
    set's elements and scatter-added onto their distinct rows; everything
    below pooling then runs on the distinct rows, like the forward pass.
    """
    gradients: dict[str, np.ndarray] = {}
    prediction = trace["prediction"]
    hidden = trace["hidden"]
    grad = grad * prediction * (1.0 - prediction)  # through the sigmoid
    _linear_gradients(gradients, "output_final", hidden, grad)
    grad = (grad @ layers["output_final"].weight.T) * (hidden > 0)
    output_hidden = layers["output_hidden"].weight
    hidden_units = hidden.shape[1]
    hidden_weight_grads = []
    for index, (_, prefix) in enumerate(SET_MODULES):
        features, first, second, rows, lengths, inv_counts = trace[prefix]
        # Through the mean and the gather: every distinct row collects
        # grad / |S| of each set it is an element of.
        projected_grad = _scatter_rows(grad * inv_counts, lengths, rows, second.shape[0])
        weight = output_hidden[index * hidden_units : (index + 1) * hidden_units]
        hidden_weight_grads.append(second.T @ projected_grad)
        set_grad = (projected_grad @ weight.T) * (second > 0)
        _linear_gradients(gradients, prefix + ".second", first, set_grad)
        set_grad = (set_grad @ layers[prefix + ".second"].weight.T) * (first > 0)
        # The features are inputs, not parameters: no gradient flows into them.
        _linear_gradients(gradients, prefix + ".first", features, set_grad)
    gradients["output_hidden.weight"] = np.concatenate(hidden_weight_grads)
    gradients["output_hidden.bias"] = grad.sum(axis=0)
    return gradients


def _scatter_rows(
    segment_grad: np.ndarray, lengths: np.ndarray, rows: np.ndarray, num_rows: int
) -> np.ndarray:
    """Add ``segment_grad[i]`` to row ``rows[e]`` for each element ``e`` of segment ``i``.

    One stable sort groups the elements by row, and ``np.add.reduceat``
    sums each group; ``np.add.at`` would be an order of magnitude slower.
    Rows no element references get zero.
    """
    out = np.zeros((num_rows, segment_grad.shape[1]), dtype=segment_grad.dtype)
    if rows.shape[0] == 0:
        return out
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(np.diff(sorted_rows, prepend=-1))
    segment_of = np.repeat(np.arange(lengths.shape[0]), lengths)
    out[sorted_rows[starts]] = np.add.reduceat(segment_grad[segment_of[order]], starts, axis=0)
    return out


def _linear_relu(features: np.ndarray, layer) -> np.ndarray:
    """One Linear+ReLU layer over ``(rows, width)`` features."""
    out = features @ layer.weight
    out += layer.bias
    np.maximum(out, 0.0, out=out)
    return out


def _linear_gradients(gradients: dict, name: str, inputs: np.ndarray, grad: np.ndarray) -> None:
    """Record the weight and bias gradients of the Linear layer ``name``."""
    gradients[name + ".weight"] = inputs.T @ grad
    gradients[name + ".bias"] = grad.sum(axis=0)


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid; ``exp`` only ever sees ``-min(|x|, 500)``."""
    exponent = np.exp(-np.minimum(np.abs(values), 500.0))  # always in (0, 1]
    denominator = exponent + 1.0
    # x >= 0: 1 / (1 + e);  x < 0: e / (1 + e)
    return np.where(values >= 0, 1.0 / denominator, exponent / denominator)
