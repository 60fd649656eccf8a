"""Serving-side MSCN inference over the ragged layout (Section 4.7 serving).

:class:`InferenceEngine` runs the model's one forward pass,
:func:`repro.core.model.forward` — the same code training runs — against an
immutable weight snapshot, and adds what serving needs on top:

* chunking: a batch is split into fixed-size chunks, run one after another
  on the calling thread;
* precision tiers: the snapshot may hold float16 or int8 weights (see
  below), computed in float32;
* the ``engine.run`` fault point, for the fault-injection tests.

The engine keeps no scratch between runs: every intermediate is a fresh
array, which ran at 0.96-1.02x the time of reusing grow-only scratch buffers
at chunk sizes 1-4,000 (imdb ``small``, hidden 256, float32, 2 cores).  So
the only state a run reads is the weight snapshot, which makes one engine
safe to share across threads.

A run starts no thread: every chunk computes on the caller's thread.

Over a native snapshot of the model's own dtype, the engine is
bit-identical to ``forward(dataset, model.layers)`` on each chunk.

The weights an engine computes against live in an immutable
:class:`WeightSnapshot` — a generation-stamped set of :class:`EngineLayer`
snapshots that every chunk of a run reads.  Snapshots support three
precision tiers:

* **native** (``float32`` / ``float64``) — contiguous casts of the live
  parameters, a no-copy pass-through when the model already computes in the
  engine dtype,
* **float16** — weights and biases are rounded through IEEE half precision
  (halving snapshot storage); matmuls run in float32 because NumPy has no
  half-precision BLAS kernels, so the accuracy cost is exactly the fp16
  rounding of the weights,
* **int8** — calibrated symmetric per-tensor quantization: each weight
  matrix is stored as ``int8`` with one float scale (``max|W| / 127``) and
  dequantized once into the float32 compute copy; biases stay in float32
  (they are a negligible fraction of the parameters and quantizing them
  buys nothing).

The engine reads the model's parameters when it is built and at each
:meth:`~InferenceEngine.refresh`; call it after any weight update (the
trainer does so before the first prediction after training, so a quantized
tier is re-quantized once per weight change, not once per prediction).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.model import MSCN, forward
from repro.utils.faults import fault_point

__all__ = [
    "EngineLayer",
    "InferenceEngine",
    "WeightSnapshot",
    "resolve_precision",
    "SUPPORTED_PRECISIONS",
]

#: Precisions a weight snapshot can be captured in; ``MSCNConfig`` validates
#: ``inference_precision`` against this table through :func:`resolve_precision`.
SUPPORTED_PRECISIONS = ("float32", "float64", "float16", "int8")

#: Precisions whose stored weights differ from the compute copies.
QUANTIZED_PRECISIONS = ("float16", "int8")


def resolve_precision(
    model_dtype: np.dtype,
    dtype: "np.dtype | str | None" = None,
    precision: "str | None" = None,
) -> tuple[np.dtype, str]:
    """Resolve ``(compute_dtype, precision_tag)`` for an engine.

    ``precision=None`` inherits the engine ``dtype`` (or the model dtype) —
    the pre-existing native behaviour.  The quantized tiers (``float16``,
    ``int8``) always *compute* in float32: NumPy has no half/int8 GEMM, so
    their weights are stored quantized and dequantized once per snapshot.
    """
    if precision is None:
        compute = np.dtype(dtype) if dtype is not None else np.dtype(model_dtype)
        if compute.name not in ("float32", "float64"):
            raise ValueError(
                f"engine compute dtype must be float32 or float64, got {compute.name!r}"
            )
        return compute, compute.name
    try:
        tag = np.dtype(precision).name
    except TypeError:
        tag = str(precision)
    if tag not in SUPPORTED_PRECISIONS:
        raise ValueError(
            f"inference precision must be one of {SUPPORTED_PRECISIONS}, got {precision!r}"
        )
    if tag in QUANTIZED_PRECISIONS:
        return np.dtype(np.float32), tag
    return np.dtype(tag), tag


class EngineLayer:
    """A cached, contiguous snapshot of one ``Linear`` layer.

    ``weight``/``bias`` are the compute copies the matmuls read.  For the
    quantized precisions the storage representation differs:
    ``stored_weight`` holds the float16 or int8 master copy (the array whose
    size a serialized snapshot would pay for) and ``weight_scale`` the int8
    dequantization scale; for native precisions the stored arrays simply
    alias the compute copies.
    """

    __slots__ = ("weight", "bias", "stored_weight", "stored_bias", "weight_scale")

    def __init__(self, linear, dtype: np.dtype, precision: "str | None" = None):
        if precision is None or precision in ("float32", "float64"):
            self.weight = np.ascontiguousarray(linear.weight, dtype=dtype)
            self.bias = np.ascontiguousarray(linear.bias, dtype=dtype)
            self.stored_weight = self.weight
            self.stored_bias = self.bias
            self.weight_scale = None
        elif precision == "float16":
            self.stored_weight = np.ascontiguousarray(linear.weight, dtype=np.float16)
            self.stored_bias = np.ascontiguousarray(linear.bias, dtype=np.float16)
            self.weight = self.stored_weight.astype(dtype)
            self.bias = self.stored_bias.astype(dtype)
            self.weight_scale = None
        elif precision == "int8":
            weight = np.asarray(linear.weight, dtype=np.float64)
            scale = float(np.abs(weight).max()) / 127.0
            if scale == 0.0:
                scale = 1.0
            quantized = np.clip(np.rint(weight / scale), -127.0, 127.0)
            self.stored_weight = np.ascontiguousarray(quantized, dtype=np.int8)
            self.weight_scale = scale
            self.weight = (self.stored_weight.astype(dtype)) * dtype.type(scale)
            self.stored_bias = np.ascontiguousarray(linear.bias, dtype=np.float32)
            self.bias = np.ascontiguousarray(self.stored_bias, dtype=dtype)
        else:  # pragma: no cover - resolve_precision rejects unknown tags
            raise ValueError(f"unsupported precision {precision!r}")

    @property
    def stored_num_bytes(self) -> int:
        """Bytes of the storage representation (what a serialized tier pays)."""
        return self.stored_weight.nbytes + self.stored_bias.nbytes


class WeightSnapshot:
    """An immutable, generation-stamped capture of a model's weights.

    A snapshot is built once, then only ever read: every chunk of a run
    computes against one snapshot object, and a run that captured a
    snapshot keeps computing against it even if a concurrent refresh
    installs a newer generation — which is what makes hot-swap-under-load
    yield whole-generation outputs only.
    """

    __slots__ = ("layers", "dtype", "precision", "generation")

    def __init__(
        self,
        model: MSCN,
        dtype: np.dtype,
        precision: "str | None" = None,
        generation: int = 0,
    ):
        quantized = precision if precision in QUANTIZED_PRECISIONS else None
        self.dtype = np.dtype(dtype)
        self.precision = precision if precision is not None else self.dtype.name
        self.generation = generation
        self.layers = {
            name: EngineLayer(linear, self.dtype, quantized)
            for name, linear in model.layers.items()
        }

    @property
    def stored_num_bytes(self) -> int:
        """Total bytes of the stored weight tier (fp16/int8 halve/quarter it)."""
        return sum(layer.stored_num_bytes for layer in self.layers.values())


class InferenceEngine:
    """Chunked, snapshot-based forward pass of a trained :class:`MSCN` model.

    The engine holds no state between runs except its weight snapshot:
    every intermediate is a fresh matmul or ufunc result, so any number
    of threads may call :meth:`run` on one engine at once; each run computes
    on its caller's thread.  ``precision`` selects the weight tier (see the
    module docstring).
    """

    def __init__(
        self,
        model: MSCN,
        dtype: "np.dtype | str | None" = None,
        precision: "str | None" = None,
    ):
        self.model = model
        self.dtype, self.precision = resolve_precision(model.dtype, dtype, precision)
        self._lock = threading.Lock()
        self._snapshot = WeightSnapshot(model, self.dtype, self.precision, generation=0)

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> WeightSnapshot:
        """The weight snapshot new runs compute against."""
        return self._snapshot

    @property
    def generation(self) -> int:
        """Generation stamp of the current snapshot."""
        return self._snapshot.generation

    def refresh(self) -> None:
        """Re-snapshot the model's weights (call after training steps).

        When the model already holds contiguous arrays of the engine dtype
        (in-place optimizer updates never rebind the parameter buffers),
        ``ascontiguousarray`` is a no-copy pass-through and refreshing the
        native tiers is essentially free; the quantized tiers pay one
        quantize+dequantize pass over every weight.

        The new snapshot replaces the old one in a single reference
        assignment, and a run reads the reference once, so a run in flight
        on another thread computes wholly against the old snapshot or wholly
        against the new one.  Note the no-copy pass-through means a native
        snapshot may alias the live parameter buffers: the engine does not
        synchronize against *in-place mutation* of those buffers (e.g.
        optimizer steps) concurrent with serving.  Separate training from
        serving in time, or serve a distinct model object and replace it
        wholesale (the model-registry hot-swap pattern).
        """
        with self._lock:
            generation = self._snapshot.generation + 1
            self._snapshot = WeightSnapshot(self.model, self.dtype, self.precision, generation)

    # ------------------------------------------------------------------
    def run(self, dataset, chunk_size: "int | None" = None) -> np.ndarray:
        """Normalized predictions in [0, 1] for a ragged dataset; shape (n,).

        ``dataset`` is a :class:`repro.core.batching.RaggedDataset` (or any
        slice of one).  It is split into ``chunk_size``-query chunks at
        ``range(0, size, chunk_size)`` (``None`` means one whole-batch
        chunk), run in order on the calling thread.  Chunking bounds memory,
        and because BLAS kernel selection depends on operand shape, a run at
        chunk size 1 is bit-identical to one run per query.  Every chunk of
        one run computes against the snapshot the run read at its start.
        """
        size = dataset.size
        if size == 0:
            return np.empty(0, dtype=self.dtype)
        if chunk_size is None:
            chunk_size = size
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        layers = self._snapshot.layers  # read once: the whole batch's generation
        outputs = [
            self._forward(dataset.slice(start, min(start + chunk_size, size)), layers)
            for start in range(0, size, chunk_size)
        ]
        return outputs[0] if len(outputs) == 1 else np.concatenate(outputs)

    # ------------------------------------------------------------------
    def _forward(self, dataset, layers: dict) -> np.ndarray:
        """One chunk's forward pass against one snapshot's layers."""
        fault_point("engine.run", batch_size=dataset.size)
        return forward(dataset, layers)[:, 0]
