"""Serving-side MSCN inference over the ragged layout (Section 4.7 serving).

:class:`InferenceEngine` runs the model's one forward pass,
:func:`repro.core.model.forward` — the same code training runs — against an
immutable weight snapshot, and adds what serving needs on top:

* chunking: a batch is split into fixed-size chunks, run one after another
  on the calling thread;
* the ``engine.run`` fault point, for the fault-injection tests.

The engine computes in its model's dtype (``MSCNConfig.dtype``), as the
paper serves MSCN: at native precision.

The engine keeps no scratch between runs: every intermediate is a fresh
array, which ran at 0.96-1.02x the time of reusing grow-only scratch buffers
at chunk sizes 1-4,000 (imdb ``small``, hidden 256, float32, 2 cores).  So
the only state a run reads is the weight snapshot, which makes one engine
safe to share across threads.

A run starts no thread: every chunk computes on the caller's thread.

The engine is bit-identical to ``forward(dataset, model.layers)`` on each
chunk.

The weights an engine computes against live in an immutable
:class:`WeightSnapshot` — a generation-stamped set of :class:`EngineLayer`
snapshots that every chunk of a run reads.  Each layer is a contiguous cast
of the live parameters to the model dtype, a no-copy pass-through when they
already are.  The engine reads the model's parameters when it is built and
at each :meth:`~InferenceEngine.refresh`; call it after any weight update
(the trainer does so before the first prediction after training).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.model import MSCN, forward
from repro.utils.faults import fault_point

__all__ = ["EngineLayer", "InferenceEngine", "WeightSnapshot"]


class EngineLayer:
    """A cached, contiguous snapshot of one ``Linear`` layer."""

    __slots__ = ("weight", "bias")

    def __init__(self, linear, dtype: np.dtype):
        self.weight = np.ascontiguousarray(linear.weight, dtype=dtype)
        self.bias = np.ascontiguousarray(linear.bias, dtype=dtype)


class WeightSnapshot:
    """An immutable, generation-stamped capture of a model's weights.

    A snapshot is built once, then only ever read: every chunk of a run
    computes against one snapshot object, and a run that captured a
    snapshot keeps computing against it even if a concurrent refresh
    installs a newer generation — which is what makes hot-swap-under-load
    yield whole-generation outputs only.
    """

    __slots__ = ("layers", "generation")

    def __init__(self, model: MSCN, generation: int = 0):
        self.generation = generation
        self.layers = {
            name: EngineLayer(linear, model.dtype) for name, linear in model.layers.items()
        }


class InferenceEngine:
    """Chunked, snapshot-based forward pass of a trained :class:`MSCN` model.

    The engine holds no state between runs except its weight snapshot:
    every intermediate is a fresh matmul or ufunc result, so any number
    of threads may call :meth:`run` on one engine at once; each run computes
    on its caller's thread, in the model's dtype.
    """

    def __init__(self, model: MSCN):
        self.model = model
        self.dtype = model.dtype
        self._lock = threading.Lock()
        self._snapshot = WeightSnapshot(model, generation=0)

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

        When the model already holds contiguous arrays of its dtype
        (in-place optimizer updates never rebind the parameter buffers),
        ``ascontiguousarray`` is a no-copy pass-through and refreshing is
        essentially free.

        The new snapshot replaces the old one in a single reference
        assignment, and a run reads the reference once, so a run in flight
        on another thread computes wholly against the old snapshot or wholly
        against the new one.  Note the no-copy pass-through means a
        snapshot may alias the live parameter buffers: the engine does not
        synchronize against *in-place mutation* of those buffers (e.g.
        optimizer steps) concurrent with serving.  Separate training from
        serving in time, or serve a distinct model object and replace it
        wholesale (the model-registry hot-swap pattern).
        """
        with self._lock:
            generation = self._snapshot.generation + 1
            self._snapshot = WeightSnapshot(self.model, generation)

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
