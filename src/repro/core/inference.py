"""Graph-free fused inference over the ragged layout (Section 4.7 serving).

:class:`InferenceEngine` executes the MSCN forward pass as a handful of
``np.dot`` calls and activations on plain numpy arrays.  Compared to running
the autograd tensor engine under ``no_grad()`` it

* allocates **zero** ``Tensor`` objects (no graph bookkeeping, no Python
  object churn on the hot path),
* transforms only the *real* set elements (the ragged layout carries no
  padding), pooling them with a handful of vectorized segment adds per set,
  and
* computes in a configurable dtype — float32 by default in serving
  configurations — against cached contiguous weight matrices.

The engine keeps no scratch between runs: every intermediate is a fresh
array, which ran at 0.96-1.02x the time of reusing grow-only scratch buffers
at chunk sizes 1-4,000 (imdb ``small``, hidden 256, float32, 2 cores).  So
the only state a run reads is the weight snapshot.
That makes one engine safe to share across threads, and lets ``replicas``
worker threads split one large batch without a copy of the engine each.

In float64 the engine is bit-identical to ``MSCN.forward_ragged`` over the
same dataset: the matmuls are row-wise identical, both pool through the same
segment-sum kernel, and the stable sigmoid replicates the tensor engine's
clipped formulation exactly.

The weights an engine computes against live in an immutable
:class:`WeightSnapshot` — a generation-stamped set of :class:`EngineLayer`
snapshots that every worker of a run reads.  Snapshots support three
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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

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

    A snapshot is built once, then only ever read: every worker of a run
    shares one snapshot object, and a run that captured a snapshot keeps
    computing against it even if a concurrent refresh installs a newer
    generation — which is what makes hot-swap-under-load yield
    whole-generation outputs only.
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

    The engine holds no state between runs except its weight snapshot:
    every intermediate is a fresh ``np.dot`` or ufunc result, so any number
    of threads may call :meth:`run` on one engine at once.  ``precision``
    selects the weight tier (see the module docstring).  ``replicas`` is the
    number of worker threads one :meth:`run` spreads its chunks over;
    ``1`` runs every chunk inline on the calling thread.
    """

    def __init__(
        self,
        model: MSCN,
        dtype: "np.dtype | str | None" = None,
        precision: "str | None" = None,
        replicas: int = 1,
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.model = model
        self.dtype, self.precision = resolve_precision(model.dtype, dtype, precision)
        self.replicas = int(replicas)
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
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
        chunk).  With several replicas, contiguous runs of chunks go to the
        worker threads and each chunk's result is written back at its own
        offsets, so the output is bit-identical to running every chunk
        inline, whatever the replica count.  (BLAS kernel selection depends
        on operand shape; keeping the chunks themselves unchanged is what
        makes the guarantee hold.)  Every chunk of one run computes against
        the snapshot the run read at its start.
        """
        size = dataset.size
        if size == 0:
            return np.empty(0, dtype=self.dtype)
        if chunk_size is None:
            chunk_size = size
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        layers = self._snapshot.layers  # read once: the whole batch's generation
        starts = range(0, size, chunk_size)
        num_chunks = len(starts)
        # Fewer chunks than replicas cannot keep the workers busy: dispatch
        # overhead dominates, so such batches run inline.
        if self.replicas == 1 or num_chunks < self.replicas:
            outputs = [
                self._forward(dataset.slice(start, min(start + chunk_size, size)), layers)
                for start in starts
            ]
            return outputs[0] if num_chunks == 1 else np.concatenate(outputs)

        num_workers = min(self.replicas, num_chunks)
        chunks_per_worker = -(-num_chunks // num_workers)  # ceil division
        output = np.empty(size, dtype=self.dtype)

        def run_chunks(worker: int) -> None:
            for start in starts[worker * chunks_per_worker : (worker + 1) * chunks_per_worker]:
                stop = min(start + chunk_size, size)
                output[start:stop] = self._forward(dataset.slice(start, stop), layers)

        futures = [self._submit(run_chunks, worker) for worker in range(num_workers)]
        # Observe every worker before raising: bailing on the first error
        # would leave the rest still writing into ``output`` after run
        # returned (a use-after-return race) and would discard their
        # diagnostics.  The first failure (in worker order) propagates; the
        # others are recorded as context on its message.
        errors: "list[tuple[int, BaseException]]" = []
        for worker, future in enumerate(futures):
            try:
                future.result()
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append((worker, error))
        if errors:
            first_worker, first_error = errors[0]
            if len(errors) > 1:
                others = ", ".join(
                    f"replica {worker}: {error!r}" for worker, error in errors[1:]
                )
                raise RuntimeError(
                    f"{len(errors)}/{num_workers} engine replicas failed; "
                    f"first failure on replica {first_worker}: {first_error!r}; "
                    f"also: {others}"
                ) from first_error
            raise first_error
        return output

    def _submit(self, function, *args):
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.replicas, thread_name_prefix="inference-engine"
                )
            return self._executor.submit(function, *args)

    def close(self) -> None:
        """Shut down the worker threads (idempotent; the engine stays usable)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _forward(self, dataset, layers: dict) -> np.ndarray:
        """One chunk's forward pass against one snapshot's layers."""
        size = dataset.size
        fault_point("engine.run", batch_size=size)
        hidden_units = self.model.hidden_units
        merged = np.empty((size, 3 * hidden_units), dtype=self.dtype)
        for index, (prefix, ragged_set) in enumerate(
            (
                ("table", dataset.tables),
                ("join", dataset.joins),
                ("predicate", dataset.predicates),
            )
        ):
            features = np.ascontiguousarray(ragged_set.features, dtype=self.dtype)
            transformed = _linear_relu(
                _linear_relu(features, layers[prefix + "1"]), layers[prefix + "2"]
            )
            pooled = merged[:, index * hidden_units : (index + 1) * hidden_units]
            segment_sum_array(transformed, ragged_set.offsets, ragged_set.lengths, out=pooled)
            if self.model.pooling == "mean":
                pooled *= ragged_set.inv_counts.astype(self.dtype, copy=False)

        hidden = _linear_relu(merged, layers["hidden"])
        final_layer = layers["final"]
        output = np.dot(hidden, final_layer.weight)
        output += final_layer.bias
        return _stable_sigmoid(output[:, 0])


def _linear_relu(features: np.ndarray, layer: EngineLayer) -> np.ndarray:
    """One fused Linear+ReLU layer over ``(rows, width)`` features."""
    out = np.dot(features, layer.weight)
    out += layer.bias
    np.maximum(out, 0.0, out=out)
    return out


def _stable_sigmoid(values: np.ndarray) -> np.ndarray:
    """Numerically-stable sigmoid, matching ``Tensor.sigmoid``.

    Replicates the tensor engine's clipped two-branch formulation (``exp``
    is only ever evaluated on ``-min(|x|, 500)``) so float64 results are
    bit-identical to the autograd path.
    """
    exponent = np.exp(-np.minimum(np.abs(values), 500.0))  # always in (0, 1]
    denominator = exponent + 1.0
    # x >= 0: 1 / (1 + e);  x < 0: e / (1 + e)
    return np.where(values >= 0, 1.0 / denominator, exponent / denominator)
