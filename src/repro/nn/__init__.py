"""The numpy pieces MSCN's training needs.

The paper trains MSCN with PyTorch on a GPU.  PyTorch is not available in
this environment, and MSCN is one fixed graph, so its forward pass and a
hand-derived backward pass are written out in :mod:`repro.core.model`.
``repro.nn`` holds what that kernel builds on:

* :class:`~repro.nn.layers.Linear` — an affine layer whose weight and bias
  are plain numpy arrays (Kaiming or Xavier initialized),
* :func:`~repro.nn.functional.segment_sum_array` — the set-pooling kernel,
* :class:`~repro.nn.optim.Adam` — the paper's optimizer, updating the
  parameter arrays in place,
* the loss functions discussed in Section 4.8 of the paper (mean q-error,
  mean squared error, geometric-mean q-error), each returning the loss and
  its gradient,
* model (de)serialization helpers.

The kernel's gradients are checked against central finite differences in
``tests/nn/test_gradients.py``.
"""

from repro.nn.functional import segment_sum_array
from repro.nn.layers import Linear
from repro.nn.loss import geometric_q_error_loss, mse_loss, q_error_loss
from repro.nn.optim import Adam
from repro.nn.serialization import load_state_dict, save_state_dict, state_dict_num_bytes

__all__ = [
    "segment_sum_array",
    "Linear",
    "Adam",
    "q_error_loss",
    "mse_loss",
    "geometric_q_error_loss",
    "save_state_dict",
    "load_state_dict",
    "state_dict_num_bytes",
]
