"""A parallel tier of fused inference engine replicas.

:class:`EnginePool` holds N :class:`~repro.core.inference.InferenceEngine`
replicas of one model that all compute against a **single shared, read-only**
:class:`~repro.core.inference.WeightSnapshot` — only the scratch buffers are
per-replica, so concurrent chunks never contend on a lock or corrupt each
other's intermediates.  Large ``estimate_many`` / ``estimate_subplans``
batches are split into deterministic chunks and dispatched across the
replicas on a thread pool; NumPy's BLAS kernels release the GIL for the
matmuls that dominate a chunk, so the replicas genuinely run in parallel on
multi-core hosts (pin BLAS to one thread — ``OPENBLAS_NUM_THREADS=1`` — when
benchmarking, or the library's own threading competes with the pool).

**Determinism contract.**  The chunk boundaries are exactly the boundaries
the single-engine path uses (``range(0, size, chunk_size)``), each chunk is
computed whole by some replica, and per-chunk results are written back at
the chunk's own offsets — so pooled outputs are **bit-identical** to the
serial single-engine path at equal dtype, regardless of replica count or
which replica ran which chunk.  (BLAS kernel selection depends on operand
shape; keeping the chunks themselves unchanged is what makes the guarantee
hold.)

**Hot-swap contract.**  :meth:`refresh` builds one new generation-stamped
snapshot off-lock and installs it into every replica atomically with respect
to batch capture: :meth:`run_many` captures the pool's current snapshot
*once* and passes that exact object to every chunk, so a batch in flight
during a refresh computes wholly against one generation — never a mix — and
the :class:`~repro.serving.registry.ModelRegistry` hot-swap contract
survives pooling unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.inference import InferenceEngine, WeightSnapshot, resolve_precision
from repro.core.model import MSCN

__all__ = ["EnginePool"]


class EnginePool:
    """N lock-free-on-read inference engine replicas behind one snapshot.

    Parameters
    ----------
    model:
        The :class:`MSCN` whose weights are served.
    num_replicas:
        Replica count; ``1`` degenerates to the plain single-engine path
        (chunks run inline, no executor is ever created).
    dtype, precision:
        Compute dtype / weight tier, as for :class:`InferenceEngine`.
    chunk_size:
        Default queries-per-chunk for :meth:`run_many` callers that do not
        pass one explicitly (``None`` means one whole-batch chunk).
    scratch_rows_cap:
        Per-replica scratch capacity cap, as for :class:`InferenceEngine`.
    """

    def __init__(
        self,
        model: MSCN,
        num_replicas: int = 1,
        dtype: "np.dtype | str | None" = None,
        precision: "str | None" = None,
        chunk_size: "int | None" = None,
        scratch_rows_cap: "int | None" = None,
    ):
        if num_replicas < 1:
            raise ValueError("num_replicas must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1 (or None for whole-batch chunks)")
        self.model = model
        self.dtype, self.precision = resolve_precision(model.dtype, dtype, precision)
        self.num_replicas = int(num_replicas)
        self.chunk_size = chunk_size
        self._refresh_lock = threading.Lock()
        self._generation = 0
        self._snapshot = WeightSnapshot(model, self.dtype, self.precision, generation=0)
        self._engines = [
            InferenceEngine(model, scratch_rows_cap=scratch_rows_cap, snapshot=self._snapshot)
            for _ in range(self.num_replicas)
        ]
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------
    @property
    def primary(self) -> InferenceEngine:
        """The first replica (the single-engine view of the pool)."""
        return self._engines[0]

    @property
    def engines(self) -> tuple[InferenceEngine, ...]:
        return tuple(self._engines)

    @property
    def generation(self) -> int:
        """Generation stamp of the snapshot new batches will capture."""
        return self._generation

    @property
    def snapshot(self) -> WeightSnapshot:
        return self._snapshot

    def refresh(self) -> None:
        """Capture a new weight snapshot and swap it into every replica.

        One snapshot is built (off every run lock) and installed everywhere;
        batches capture the pool snapshot once at dispatch, so an in-flight
        batch keeps its old generation end to end while new batches see the
        new one — there is no window in which one batch mixes generations.
        """
        with self._refresh_lock:
            generation = self._generation + 1
            snapshot = WeightSnapshot(self.model, self.dtype, self.precision, generation)
            self._snapshot = snapshot
            self._generation = generation
            for engine in self._engines:
                engine.install_snapshot(snapshot)

    # ------------------------------------------------------------------
    # Scratch accounting (aggregated over replicas)
    # ------------------------------------------------------------------
    def _engine_snapshot(self) -> "tuple[InferenceEngine, ...]":
        """The replica list, snapshotted under the refresh lock.

        Scratch accounting iterates the replicas outside any run lock; taking
        the snapshot under ``_refresh_lock`` guarantees a concurrent
        ``refresh()`` cannot interleave with the walk, so every aggregate sees
        a consistent replica set and post-swap snapshot state.
        """
        with self._refresh_lock:
            return tuple(self._engines)

    def reset_scratch(self) -> None:
        """Release every replica's cached scratch buffers."""
        for engine in self._engine_snapshot():
            engine.reset_scratch()

    def scratch_bytes(self) -> int:
        """Bytes currently held across all replicas' scratch buffers."""
        return sum(engine.scratch_bytes() for engine in self._engine_snapshot())

    @property
    def scratch_high_water_bytes(self) -> int:
        """Summed per-replica high-water marks (peak pinned scratch bound)."""
        return sum(engine.scratch_high_water_bytes for engine in self._engine_snapshot())

    @property
    def scratch_reuse_rate(self) -> float:
        """Mean fraction of runs served from recycled scratch across replicas."""
        engines = self._engine_snapshot()
        if not engines:
            return 0.0
        return sum(engine.scratch_reuse_rate for engine in engines) / len(engines)

    # ------------------------------------------------------------------
    def run_many(self, dataset, chunk_size: "int | None" = None) -> np.ndarray:
        """Predictions for a ragged dataset, chunked and replica-parallel.

        Splits ``dataset`` into ``chunk_size`` query chunks at the same
        boundaries the serial path uses, assigns contiguous runs of chunks
        to replicas, and concatenates per-chunk results in input order —
        bit-identical to running every chunk on one engine sequentially.
        """
        size = dataset.size
        if size == 0:
            return np.empty(0, dtype=self.dtype)
        if chunk_size is None:
            chunk_size = self.chunk_size if self.chunk_size is not None else size
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        snapshot = self._snapshot  # captured once: the whole batch's generation
        starts = range(0, size, chunk_size)
        num_chunks = len(starts)
        # Tiny batches (fewer chunks than replicas) cannot keep the pool busy:
        # dispatch overhead dominates, so run them inline on the primary.
        if self.num_replicas == 1 or num_chunks < self.num_replicas:
            engine = self._engines[0]
            outputs = [
                engine.run(dataset.slice(start, min(start + chunk_size, size)), snapshot=snapshot)
                for start in starts
            ]
            return outputs[0] if num_chunks == 1 else np.concatenate(outputs)

        num_workers = min(self.num_replicas, num_chunks)
        chunks_per_worker = -(-num_chunks // num_workers)  # ceil division
        output = np.empty(size, dtype=self.dtype)

        def run_chunks(worker: int) -> None:
            engine = self._engines[worker]
            for start in starts[worker * chunks_per_worker : (worker + 1) * chunks_per_worker]:
                stop = min(start + chunk_size, size)
                output[start:stop] = engine.run(dataset.slice(start, stop), snapshot=snapshot)

        futures = [self._submit(run_chunks, worker) for worker in range(num_workers)]
        # Observe every worker before raising: bailing on the first error
        # would leave the rest still writing into ``output`` after run_many
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
        if self._executor is None:
            with self._refresh_lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.num_replicas,
                        thread_name_prefix="engine-pool",
                    )
        return self._executor.submit(function, *args)

    def close(self) -> None:
        """Shut down the worker threads (idempotent; pool stays usable inline)."""
        with self._refresh_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
