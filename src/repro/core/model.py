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

Average pooling (rather than sum pooling) is used so the magnitude of the set
representation does not depend on the set size, which eases generalization to
unseen set sizes; sum pooling is available behind a flag for the ablation
benchmark.

The forward pass, :meth:`MSCN.forward_ragged`, runs over the ragged layout
of :class:`~repro.core.batching.RaggedDataset`: the per-element MLPs see only
the real set elements, and pooling is a segment reduction over the CSR
offsets — the paper's masked average without any padded slots.  Inference
runs the same computation graph-free in
:class:`~repro.core.inference.InferenceEngine`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import segment_mean, segment_sum
from repro.nn.layers import Linear, MLP, Module
from repro.nn.tensor import Tensor, concatenate

__all__ = ["MSCN"]


class MSCN(Module):
    """Multi-set convolutional network for cardinality estimation.

    Parameters
    ----------
    table_feature_width, join_feature_width, predicate_feature_width:
        Widths of the per-element feature vectors produced by the featurizer.
    hidden_units:
        Width ``d`` of all hidden layers and set representations.
    rng:
        Generator used for weight initialization (reproducible training runs).
    pooling:
        ``"mean"`` (the paper's choice) or ``"sum"`` (ablation).
    dtype:
        Parameter (and therefore compute) dtype; float64 by default,
        estimators pass their configured ``MSCNConfig.dtype``.
    """

    def __init__(
        self,
        table_feature_width: int,
        join_feature_width: int,
        predicate_feature_width: int,
        hidden_units: int = 256,
        rng: np.random.Generator | None = None,
        pooling: str = "mean",
        dtype: np.dtype | str = np.float64,
    ):
        super().__init__()
        if pooling not in {"mean", "sum"}:
            raise ValueError("pooling must be 'mean' or 'sum'")
        rng = rng if rng is not None else np.random.default_rng()
        self.table_feature_width = table_feature_width
        self.join_feature_width = join_feature_width
        self.predicate_feature_width = predicate_feature_width
        self.hidden_units = hidden_units
        self.pooling = pooling
        self.dtype = np.dtype(dtype)

        self.table_mlp = MLP(table_feature_width, hidden_units, rng=rng)
        self.join_mlp = MLP(join_feature_width, hidden_units, rng=rng)
        self.predicate_mlp = MLP(predicate_feature_width, hidden_units, rng=rng)
        self.output_hidden = Linear(3 * hidden_units, hidden_units, rng=rng)
        self.output_final = Linear(hidden_units, 1, rng=rng, initializer="xavier")
        if self.dtype != np.float64:
            for _, parameter in self.named_parameters():
                parameter.data = parameter.data.astype(self.dtype)

    # ------------------------------------------------------------------
    def _set_module_ragged(self, mlp: MLP, ragged_set) -> Tensor:
        """Apply a per-element MLP to real rows only and segment-pool."""
        transformed = mlp(Tensor(ragged_set.features))
        if self.pooling == "mean":
            return segment_mean(transformed, ragged_set.offsets, ragged_set.inv_counts)
        return segment_sum(transformed, ragged_set.offsets)

    def forward_ragged(self, dataset) -> Tensor:
        """Forward pass over a :class:`repro.core.batching.RaggedDataset`.

        The per-element MLPs see only the ``total_elements`` real rows — no
        padded slots are ever transformed — and pooling is a segment
        reduction over the CSR offsets.  Differentiable; the output has
        shape (batch, 1) and holds normalized cardinalities in [0, 1].
        """
        table_repr = self._set_module_ragged(self.table_mlp, dataset.tables)
        join_repr = self._set_module_ragged(self.join_mlp, dataset.joins)
        predicate_repr = self._set_module_ragged(self.predicate_mlp, dataset.predicates)
        return self._output(table_repr, join_repr, predicate_repr)

    def _output(self, table_repr: Tensor, join_repr: Tensor, predicate_repr: Tensor) -> Tensor:
        merged = concatenate((table_repr, join_repr, predicate_repr), axis=1)
        hidden = self.output_hidden(merged).relu()
        return self.output_final(hidden).sigmoid()
