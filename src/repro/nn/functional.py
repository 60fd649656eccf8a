"""The set-pooling kernel of the MSCN model.

:func:`segment_sum_array` implements the summing half of the paper's
Section 3.2 averaging step (per-element MLP outputs pooled per set) over the
ragged layout: one row per distinct element, each element's row index and
CSR-style per-query offsets, so no padding is ever stored or masked out
(see ``repro.core.batching.RaggedDataset``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["segment_sum_array"]


def segment_sum_array(
    data: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
    out: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Plain-numpy segment sum over contiguous element segments.

    Segment ``i`` covers elements ``offsets[i]:offsets[i + 1]``; element
    ``e`` is row ``rows[e]`` of ``data`` (row ``e`` when ``rows`` is
    ``None``), so elements may share a row.  Empty segments produce zero
    rows.  Accumulates slot-by-slot (segment element ``k`` of
    every segment is added in round ``k``), which is *left-associative per
    segment*, so the result does not depend on the batch a segment sits in.
    (``np.add.reduceat`` would be a single call but accumulates in a
    different association order; the slot loop runs at most ``max set
    size`` vectorized gather-adds, which is just as fast for the small sets
    of this workload shape.)
    """
    num_segments = lengths.shape[0]
    if out is None:
        out = np.zeros((num_segments, data.shape[1]), dtype=data.dtype)
    else:
        out[:] = 0.0
    if offsets[-1] == 0 or num_segments == 0:
        return out
    starts = offsets[:-1]
    max_length = int(lengths.max())
    for slot in range(max_length):
        active = np.flatnonzero(lengths > slot)
        elements = starts[active] + slot
        # Each segment index appears at most once in ``active``, so a plain
        # fancy-indexed add is collision-free.
        out[active] += data[elements if rows is None else rows[elements]]
    return out
