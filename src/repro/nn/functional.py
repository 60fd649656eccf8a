"""Functional helpers used by the MSCN model.

The set-pooling primitives :func:`segment_mean` / :func:`segment_sum`
implement the paper's Section 3.2 averaging step (per-element MLP outputs
pooled per set) over the ragged layout: flattened ``(total_elements, dim)``
tensors with CSR-style per-query offsets, so no padding is ever stored or
masked out (see ``repro.core.batching.RaggedDataset``).  Both are
differentiable; :func:`segment_sum_array` is the plain-numpy kernel the
graph-free inference engine shares with them.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, concatenate, maximum

__all__ = [
    "segment_mean",
    "segment_sum",
    "segment_sum_array",
    "relu",
    "sigmoid",
    "concatenate",
    "maximum",
]


def relu(tensor: Tensor) -> Tensor:
    """Rectified linear unit, ``max(0, x)``."""
    return tensor.relu()


def sigmoid(tensor: Tensor) -> Tensor:
    """Logistic sigmoid, ``1 / (1 + exp(-x))``."""
    return tensor.sigmoid()


def _segment_offsets(offsets: np.ndarray) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.shape[0] < 1:
        raise ValueError("offsets must be a 1-D array of at least one boundary")
    return offsets


def segment_sum_array(
    data: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Plain-numpy segment sum over contiguous row segments.

    Accumulates slot-by-slot (segment element ``k`` of every segment is added
    in round ``k``), which is *left-associative per segment*: the autograd
    forward and the fused inference engine both pool through this kernel,
    so they are bit-identical in float64.  (``np.add.reduceat`` would be a
    single call but accumulates in a different association order; the slot
    loop runs at most ``max set size`` vectorized gather-adds, which is just
    as fast for the small sets of this workload shape.)
    """
    num_segments = lengths.shape[0]
    if out is None:
        out = np.zeros((num_segments, data.shape[1]), dtype=data.dtype)
    else:
        out[:] = 0.0
    if data.shape[0] == 0 or num_segments == 0:
        return out
    starts = offsets[:-1]
    max_length = int(lengths.max())
    for slot in range(max_length):
        active = np.flatnonzero(lengths > slot)
        # Each segment index appears at most once in ``active``, so a plain
        # fancy-indexed add is collision-free.
        out[active] += data[starts[active] + slot]
    return out


def segment_sum(values: Tensor, offsets: np.ndarray) -> Tensor:
    """Sum contiguous row segments of a ``(total, dim)`` tensor.

    ``offsets`` holds ``num_segments + 1`` monotonically non-decreasing row
    boundaries; segment ``i`` covers rows ``offsets[i]:offsets[i + 1]``.
    Empty segments produce zero rows.
    """
    offsets = _segment_offsets(offsets)
    data = values.data
    if data.ndim != 2:
        raise ValueError("segment_sum expects a 2-D (total, dim) tensor")
    if offsets[-1] != data.shape[0]:
        raise ValueError(
            f"offsets cover {offsets[-1]} rows but values has {data.shape[0]}"
        )
    lengths = np.diff(offsets)
    out = segment_sum_array(data, offsets, lengths)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(np.repeat(grad, lengths, axis=0))

    return Tensor._from_op(out, (values,), backward)


def segment_mean(
    values: Tensor, offsets: np.ndarray, inv_counts: np.ndarray | None = None
) -> Tensor:
    """Average contiguous row segments; empty segments produce zero rows.

    ``inv_counts`` optionally supplies the precomputed ``(num_segments, 1)``
    reciprocal segment lengths (``1 / max(length, 1)``), as cached by
    ``RaggedSet``.
    """
    summed = segment_sum(values, offsets)
    if inv_counts is None:
        lengths = np.diff(_segment_offsets(offsets)).astype(summed.data.dtype)
        inv_counts = (1.0 / np.maximum(lengths, 1.0))[:, None]
    return summed * Tensor(inv_counts)
