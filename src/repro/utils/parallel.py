"""Shared thread-parallel execution substrate.

The thread-parallel path of the database side — concurrent workload truth
labeling (``WorkloadConfig.label_workers``) — needs one thing: fan
contiguous chunks of work across a bounded number of worker threads
**without changing the result**.  NumPy releases the GIL inside the
element-wise comparisons and reductions that dominate labeling, so plain
threads genuinely run in parallel on multi-core hosts; what the call site
needs from this module is determinism, not scheduling cleverness.  Scans
and statistics stay serial: block-parallel scans measured 0.77-0.89x serial
on 2 cores.

:class:`WorkerPool` provides exactly that:

* **Deterministic chunk assignment.**  ``run_spans`` splits ``total`` work
  items into at most ``max_workers`` contiguous ``[start, stop)`` spans via
  :func:`chunk_spans` — a pure function of ``(total, workers)`` — and returns
  the per-span results **in span order**, regardless of which thread finished
  first.  Callers that merge partials in span order (or whose merge operation
  is order-independent, like integer count sums) therefore produce results
  bit-identical to a serial run at any worker count.
* **Serial fallback.**  A single item, or a pool configured with one
  worker, runs serially on the calling thread, in the same span order.
* **Injectable worker budget.**  ``max_workers=None`` means *serial* — the
  drop-in default that changes nothing for existing call sites —
  ``"auto"`` resolves to the host's CPU count, and any positive integer is
  taken literally.  The underlying ``ThreadPoolExecutor`` is created lazily
  on first parallel dispatch and reused across calls.

Error handling mirrors :meth:`EnginePool.run_many`: every span is awaited
before any failure propagates, so no worker is still writing into shared
output when the call returns, and secondary failures are attached to the
first one's message instead of being silently dropped.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = ["WorkerPool", "chunk_spans", "resolve_worker_count"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def resolve_worker_count(max_workers: "int | str | None") -> int:
    """Normalize a worker budget: ``None`` → 1, ``"auto"`` → CPU count.

    Positive integers pass through; anything else raises ``ValueError`` so a
    typo'd configuration fails at construction instead of degrading silently.
    """
    if max_workers is None:
        return 1
    if max_workers == "auto":
        return os.cpu_count() or 1
    if isinstance(max_workers, bool) or not isinstance(max_workers, int):
        raise ValueError(
            f"max_workers must be None, 'auto' or a positive integer, got {max_workers!r}"
        )
    if max_workers < 1:
        raise ValueError("max_workers must be >= 1 (or None for serial)")
    return max_workers


def chunk_spans(total: int, num_chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into ``num_chunks`` contiguous near-equal spans.

    A pure function of its arguments: the first ``total % num_chunks`` spans
    hold one extra item, empty spans are never emitted, and the spans cover
    the range in order — the fixed chunk→worker assignment that makes
    parallel merges reproducible.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    num_chunks = min(num_chunks, total) if total else 0
    spans: list[tuple[int, int]] = []
    start = 0
    for chunk in range(num_chunks):
        size = total // num_chunks + (1 if chunk < total % num_chunks else 0)
        spans.append((start, start + size))
        start += size
    return spans


class WorkerPool:
    """A bounded thread pool with deterministic contiguous chunk assignment.

    Parameters
    ----------
    max_workers:
        Worker budget: ``None`` (serial, the default), ``"auto"`` (CPU
        count) or a positive integer.
    name:
        Thread-name prefix, for debuggability of stack dumps.
    """

    def __init__(
        self,
        max_workers: "int | str | None" = None,
        name: str = "repro-worker",
    ):
        self.max_workers = resolve_worker_count(max_workers)
        self._name = name
        self._executor: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def effective_workers(self, total: int) -> int:
        """Workers a task of ``total`` items will actually use (>= 1)."""
        return max(1, min(self.max_workers, total))

    def run_spans(
        self, total: int, task: Callable[[int, int], _ResultT]
    ) -> list[_ResultT]:
        """Run ``task(start, stop)`` over contiguous spans of ``[0, total)``.

        The spans are ``chunk_spans(total, effective_workers(total))``; the
        returned list holds one result per span **in span order**.  With one
        effective worker the spans run inline (serial fallback); the single
        span then covers the whole range, so serial and parallel callers
        share one code path.
        """
        workers = self.effective_workers(total)
        spans = chunk_spans(total, workers)
        if workers == 1:
            return [task(start, stop) for start, stop in spans]
        futures = [self._submit(task, start, stop) for start, stop in spans]
        results: list[_ResultT] = [None] * len(futures)  # type: ignore[list-item]
        errors: list[tuple[int, BaseException]] = []
        # Await every span before raising: bailing early would leave workers
        # still mutating caller-owned buffers after this call returned.
        for position, future in enumerate(futures):
            try:
                results[position] = future.result()
            except BaseException as error:  # noqa: BLE001 — re-raised below
                errors.append((position, error))
        if errors:
            first_span, first_error = errors[0]
            if len(errors) > 1:
                others = ", ".join(f"span {span}: {error!r}" for span, error in errors[1:])
                raise RuntimeError(
                    f"{len(errors)}/{len(futures)} worker spans failed; first "
                    f"failure on span {first_span}: {first_error!r}; also: {others}"
                ) from first_error
            raise first_error
        return results

    def map(
        self, function: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> list[_ResultT]:
        """``[function(item) for item in items]`` with parallel chunks.

        Items are processed in contiguous chunks, one chunk per worker, and
        results are returned in input order — identical to the serial list
        comprehension whenever ``function`` is a pure per-item computation.
        """
        chunked = self.run_spans(
            len(items),
            lambda start, stop: [function(item) for item in items[start:stop]],
        )
        return [result for chunk in chunked for result in chunk]

    # ------------------------------------------------------------------
    def _submit(self, task, *args):
        if self._executor is None:
            with self._lock:
                if self._executor is None:
                    self._executor = ThreadPoolExecutor(
                        max_workers=self.max_workers, thread_name_prefix=self._name
                    )
        return self._executor.submit(task, *args)

    def close(self) -> None:
        """Shut down worker threads (idempotent; the pool stays usable inline)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
