"""Graph-free fused inference over the ragged layout (Section 4.7 serving).

:class:`InferenceEngine` executes the MSCN forward pass as a handful of
``np.dot(..., out=...)`` calls and in-place activations over preallocated
scratch buffers.  Compared to running the autograd tensor engine under
``no_grad()`` it

* allocates **zero** ``Tensor`` objects (no graph bookkeeping, no Python
  object churn on the hot path),
* transforms only the *real* set elements (the ragged layout carries no
  padding), pooling them with a handful of vectorized segment adds per set,
* computes in a configurable dtype — float32 by default in serving
  configurations — against cached contiguous weight matrices, and
* reuses grow-only scratch buffers across calls, so steady-state serving
  performs no large allocations at all.

In float64 the engine is bit-identical to ``MSCN.forward_ragged`` over the
same dataset: the matmuls are row-wise identical, both pool through the same
segment-sum kernel, and the stable sigmoid replicates the tensor engine's
clipped formulation exactly.

The weights an engine computes against live in an immutable
:class:`WeightSnapshot` — a generation-stamped set of :class:`EngineLayer`
snapshots that several engine replicas can share read-only (see
:class:`~repro.core.pool.EnginePool`).  Snapshots support three precision
tiers:

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

The engine reads the model's parameters at :meth:`refresh` time; call it
after any weight update (the trainer does so once per prediction call, which
costs one cast/copy of ~100k parameters — negligible next to a single batch).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.arena import ScratchArena
from repro.core.model import MSCN
from repro.nn.functional import segment_sum_array
from repro.utils.faults import fault_point

__all__ = [
    "EngineLayer",
    "InferenceEngine",
    "WeightSnapshot",
    "resolve_precision",
    "SUPPORTED_PRECISIONS",
]

#: Precisions a weight snapshot can be captured in.
SUPPORTED_PRECISIONS = ("float32", "float64", "float16", "int8")

#: Precisions whose stored weights differ from the compute copies.
QUANTIZED_PRECISIONS = ("float16", "int8")


def resolve_precision(
    model_dtype: np.dtype,
    dtype: "np.dtype | str | None" = None,
    precision: "str | None" = None,
) -> tuple[np.dtype, str]:
    """Resolve ``(compute_dtype, precision_tag)`` for an engine or pool.

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
            self.weight = np.ascontiguousarray(linear.weight.data, dtype=dtype)
            self.bias = np.ascontiguousarray(linear.bias.data, dtype=dtype)
            self.stored_weight = self.weight
            self.stored_bias = self.bias
            self.weight_scale = None
        elif precision == "float16":
            self.stored_weight = np.ascontiguousarray(linear.weight.data, dtype=np.float16)
            self.stored_bias = np.ascontiguousarray(linear.bias.data, dtype=np.float16)
            self.weight = self.stored_weight.astype(dtype)
            self.bias = self.stored_bias.astype(dtype)
            self.weight_scale = None
        elif precision == "int8":
            weight = np.asarray(linear.weight.data, dtype=np.float64)
            scale = float(np.abs(weight).max()) / 127.0
            if scale == 0.0:
                scale = 1.0
            quantized = np.clip(np.rint(weight / scale), -127.0, 127.0)
            self.stored_weight = np.ascontiguousarray(quantized, dtype=np.int8)
            self.weight_scale = scale
            self.weight = (self.stored_weight.astype(dtype)) * dtype.type(scale)
            self.stored_bias = np.ascontiguousarray(linear.bias.data, dtype=np.float32)
            self.bias = np.ascontiguousarray(self.stored_bias, dtype=dtype)
        else:  # pragma: no cover - resolve_precision rejects unknown tags
            raise ValueError(f"unsupported precision {precision!r}")

    @property
    def stored_num_bytes(self) -> int:
        """Bytes of the storage representation (what a serialized tier pays)."""
        return self.stored_weight.nbytes + self.stored_bias.nbytes


class WeightSnapshot:
    """An immutable, generation-stamped capture of a model's weights.

    A snapshot is built once (off any lock), then only ever read: engine
    replicas in an :class:`~repro.core.pool.EnginePool` share one snapshot
    object, and a run that captured a snapshot keeps computing against it
    even if a concurrent refresh installs a newer generation — which is what
    makes hot-swap-under-load yield whole-generation outputs only.
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
            "table1": EngineLayer(model.table_mlp.first, self.dtype, quantized),
            "table2": EngineLayer(model.table_mlp.second, self.dtype, quantized),
            "join1": EngineLayer(model.join_mlp.first, self.dtype, quantized),
            "join2": EngineLayer(model.join_mlp.second, self.dtype, quantized),
            "predicate1": EngineLayer(model.predicate_mlp.first, self.dtype, quantized),
            "predicate2": EngineLayer(model.predicate_mlp.second, self.dtype, quantized),
            "hidden": EngineLayer(model.output_hidden, self.dtype, quantized),
            "final": EngineLayer(model.output_final, self.dtype, quantized),
        }

    @property
    def stored_num_bytes(self) -> int:
        """Total bytes of the stored weight tier (fp16/int8 halve/quarter it)."""
        return sum(layer.stored_num_bytes for layer in self.layers.values())


class InferenceEngine:
    """Fused pure-numpy forward pass of a trained :class:`MSCN` model.

    ``precision`` selects the weight tier (see the module docstring);
    ``scratch_rows_cap`` bounds the grow-only scratch buffers — after a run,
    any buffer sized for more rows than the cap is released, so one huge
    batch cannot permanently pin peak memory in a long-lived service.  A
    pool passes ``snapshot`` so replicas share one read-only weight capture
    instead of each building their own.
    """

    def __init__(
        self,
        model: MSCN,
        dtype: "np.dtype | str | None" = None,
        precision: "str | None" = None,
        scratch_rows_cap: "int | None" = None,
        snapshot: "WeightSnapshot | None" = None,
    ):
        self.model = model
        if snapshot is not None:
            self.dtype = snapshot.dtype
            self.precision = snapshot.precision
        else:
            self.dtype, self.precision = resolve_precision(model.dtype, dtype, precision)
        if scratch_rows_cap is not None and scratch_rows_cap < 1:
            raise ValueError("scratch_rows_cap must be >= 1 (or None for unbounded)")
        self.scratch_rows_cap = scratch_rows_cap
        self._scratch = ScratchArena(name="engine-scratch")
        # The scratch buffers make a run stateful; serialize concurrent
        # callers so shared-estimator serving from multiple threads stays
        # correct (uncontended acquisition is nanoseconds, far below one
        # batch's compute).
        self._run_lock = threading.Lock()
        if snapshot is not None:
            self._snapshot = snapshot
            self._generation = snapshot.generation
        else:
            self._generation = 0
            self.refresh()

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> WeightSnapshot:
        """The currently installed weight snapshot."""
        return self._snapshot

    @property
    def generation(self) -> int:
        """Generation stamp of the installed snapshot."""
        return self._generation

    def refresh(self) -> None:
        """Re-snapshot the model's weights (call after training steps).

        When the model already holds contiguous arrays of the engine dtype
        (the common serving case: in-place optimizer updates never rebind the
        parameter buffers), ``ascontiguousarray`` is a no-copy pass-through
        and refreshing is essentially free for the native tiers; the
        quantized tiers pay one quantize+dequantize pass over ~100k
        parameters.

        The new snapshot is built off-lock and swapped in under ``_run_lock``,
        so an in-flight :meth:`run` on another thread never observes a
        partially swapped layer set: it computes either fully against the old
        snapshot or fully against the new one.  Note the no-copy pass-through
        means a native snapshot may alias the live parameter buffers — the
        engine does not synchronize against *in-place mutation* of those
        buffers (e.g. optimizer steps) concurrent with serving.  Separate
        training from serving in time, or serve a distinct model object and
        replace it wholesale (the model-registry hot-swap pattern), which is
        safe because a retired model's buffers are never written again.
        """
        generation = self._generation + 1
        snapshot = WeightSnapshot(self.model, self.dtype, self.precision, generation)
        with self._run_lock:
            self._snapshot = snapshot
            self._generation = generation

    def install_snapshot(self, snapshot: WeightSnapshot) -> None:
        """Adopt an externally built snapshot (the pool's shared capture)."""
        with self._run_lock:
            self._snapshot = snapshot
            self._generation = snapshot.generation

    # ------------------------------------------------------------------
    # Scratch-buffer management
    # ------------------------------------------------------------------
    @property
    def _buffers(self) -> dict:
        """The scratch arena's backing arrays (kept for introspection)."""
        return self._scratch._arrays

    def _buffer(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A ``(rows, cols)`` scratch view into the engine's scratch arena."""
        return self._scratch.array(name, rows, cols, self.dtype)

    def reset_scratch(self) -> None:
        """Release every cached scratch buffer (the high-water mark persists)."""
        with self._run_lock:
            self._scratch.reset()

    def scratch_bytes(self) -> int:
        """Bytes currently held by the cached scratch buffers."""
        with self._run_lock:
            return self._scratch.nbytes

    @property
    def scratch_high_water_bytes(self) -> int:
        """Largest scratch footprint any run has reached (survives resets)."""
        return self._scratch.high_water_bytes

    @property
    def scratch_reuse_rate(self) -> float:
        """Fraction of runs served entirely from recycled scratch capacity."""
        return self._scratch.reuse_rate

    def _account_scratch(self) -> None:
        """Enforce the capacity cap after a run (run-locked).

        The high-water mark is tracked by the arena at allocation time, so
        only the eviction policy lives here.
        """
        cap = self.scratch_rows_cap
        if cap is not None:
            self._scratch.drop_rows_above(cap)

    # ------------------------------------------------------------------
    def _mlp(self, layers: dict, prefix: str, features: np.ndarray) -> np.ndarray:
        """Two fused Linear+ReLU layers over ``(rows, width)`` features."""
        first = layers[prefix + "1"]
        second = layers[prefix + "2"]
        rows = features.shape[0]
        hidden = self._buffer(prefix + ".h1", rows, first.weight.shape[1])
        np.dot(features, first.weight, out=hidden)
        hidden += first.bias
        np.maximum(hidden, 0.0, out=hidden)
        out = self._buffer(prefix + ".h2", rows, second.weight.shape[1])
        np.dot(hidden, second.weight, out=out)
        out += second.bias
        np.maximum(out, 0.0, out=out)
        return out

    def _pool(self, transformed: np.ndarray, ragged_set, out: np.ndarray) -> None:
        """Segment-pool per-element outputs into ``out`` (a view into merged)."""
        segment_sum_array(transformed, ragged_set.offsets, ragged_set.lengths, out=out)
        if self.model.pooling == "mean":
            out *= ragged_set.inv_counts.astype(self.dtype, copy=False)

    def _stable_sigmoid(self, values: np.ndarray) -> None:
        """In-place numerically-stable sigmoid, matching ``Tensor.sigmoid``.

        Replicates the tensor engine's clipped two-branch formulation
        (``exp`` is only ever evaluated on ``-min(|x|, 500)``) so float64
        results are bit-identical to the autograd path.
        """
        positive = values >= 0
        exponent = self._buffer("sigmoid.e", values.shape[0], values.shape[1])
        np.abs(values, out=exponent)
        np.minimum(exponent, 500.0, out=exponent)
        np.negative(exponent, out=exponent)
        np.exp(exponent, out=exponent)  # exp(-min(|x|, 500)), always in (0, 1]
        denominator = self._buffer("sigmoid.d", values.shape[0], values.shape[1])
        np.add(exponent, 1.0, out=denominator)
        # x >= 0: 1 / (1 + e);  x < 0: e / (1 + e)
        np.divide(exponent, denominator, out=exponent)
        np.divide(1.0, denominator, out=denominator)
        np.copyto(values, denominator, where=positive)
        np.copyto(values, exponent, where=~positive)

    # ------------------------------------------------------------------
    def run(self, dataset, snapshot: "WeightSnapshot | None" = None) -> np.ndarray:
        """Normalized predictions in [0, 1] for a ragged dataset; shape (n,).

        ``dataset`` is a :class:`repro.core.batching.RaggedDataset` (or any
        slice of one).  The returned array is freshly allocated; all
        intermediates live in the engine's reusable scratch buffers (guarded
        by an internal lock, so concurrent callers serialize rather than
        corrupt each other's results).  ``snapshot`` overrides the installed
        weights for this run — an :class:`~repro.core.pool.EnginePool`
        passes its batch-level capture so every chunk of one logical batch
        computes against a single generation, whatever refreshes happen
        mid-flight.
        """
        size = dataset.size
        if size == 0:
            return np.empty(0, dtype=self.dtype)
        fault_point("engine.run", batch_size=size)
        with self._run_lock:
            active = snapshot if snapshot is not None else self._snapshot
            with self._scratch.lease():
                result = self._run_locked(dataset, size, active.layers)
            self._account_scratch()
            return result

    def _run_locked(self, dataset, size: int, layers: dict) -> np.ndarray:
        hidden_units = self.model.hidden_units
        merged = self._buffer("merged", size, 3 * hidden_units)
        for index, (prefix, ragged_set) in enumerate(
            (
                ("table", dataset.tables),
                ("join", dataset.joins),
                ("predicate", dataset.predicates),
            )
        ):
            features = np.ascontiguousarray(ragged_set.features, dtype=self.dtype)
            transformed = self._mlp(layers, prefix, features)
            pooled = merged[:, index * hidden_units : (index + 1) * hidden_units]
            self._pool(transformed, ragged_set, pooled)

        hidden_layer = layers["hidden"]
        final_layer = layers["final"]
        hidden = self._buffer("out.h", size, hidden_units)
        np.dot(merged, hidden_layer.weight, out=hidden)
        hidden += hidden_layer.bias
        np.maximum(hidden, 0.0, out=hidden)
        output = np.empty((size, final_layer.weight.shape[1]), dtype=self.dtype)
        np.dot(hidden, final_layer.weight, out=output)
        output += final_layer.bias
        self._stable_sigmoid(output)
        return output[:, 0]
