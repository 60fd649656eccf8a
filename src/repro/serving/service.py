"""The micro-batched, cache-fronted, fault-tolerant estimation service.

:class:`EstimationService` is the traffic-facing layer above the fused
inference engine (Section 4.7's sub-millisecond serving path) and implements
the deployment recipe of the paper's Section 5 discussion:

* **Result caching** — queries are canonicalized via ``Query.signature()``
  into a signature-keyed LRU, so the repetitive traffic an optimizer
  generates (the same subqueries costed across plan enumerations) is
  answered without touching the model at all.
* **Micro-batch coalescing** — cache misses from concurrent callers are
  queued and drained by a single batcher thread into one fused
  ``estimate_featurized`` pass per micro-batch: set-wise MLPs and pooling
  amortize across every in-flight request instead of running per caller.
* **Uncertainty-routed fallback** — when the model is an
  :class:`~repro.core.ensemble.EnsembleMSCNEstimator`, queries whose member
  spread exceeds ``max_spread`` are out-of-distribution by the deep-ensembles
  signal; those (and queries whose join count exceeds the trained
  ``max_joins`` range) are re-estimated by a configurable traditional
  :class:`~repro.estimators.base.CardinalityEstimator` (e.g. random sampling
  or IBJS), exactly the hybrid the paper proposes.
* **Atomic hot-swap** — :meth:`swap_model` replaces the serving model under
  a lock, bumps a generation counter and clears the cache; an in-flight
  micro-batch computed against the old model can never publish stale results
  into the new model's cache.

On top of the fast path sits the reliability layer a production optimizer
needs — no caller ever hangs, and every request resolves to a correct
estimate, a degraded (fallback) estimate, or a typed error:

* **Admission control** — the pending queue is bounded
  (``max_queue_depth`` queries); an overloaded service either rejects new
  misses with a typed :class:`~repro.serving.errors.ServiceOverloadedError`
  (``overload_policy="reject"``) or answers them straight from the fallback
  estimator (``"degrade"``), never queueing unbounded work.
* **Deadline propagation** — every request carries a deadline (defaulting
  to ``request_timeout_seconds``); the batcher removes expired requests at
  dequeue time — their queries are *not* featurized or inferred as dead
  work — and resolves them with a typed
  :class:`~repro.serving.errors.DeadlineExceededError`.
* **Circuit breaker** — consecutive inference failures open a
  :class:`~repro.serving.breaker.CircuitBreaker`; while open, batches
  degrade to the fallback estimator without touching the model (typed
  :class:`~repro.serving.errors.ModelUnavailableError` when there is no
  fallback), and half-open probes test recovery.  Degraded estimates are
  **never** published to the result cache, so once the breaker closes the
  served values are bit-identical to the pre-fault path.
* **Batcher watchdog** — a batcher thread that dies outside its per-batch
  error handling is detected (both by the dying thread itself and on the
  next admission) and restarted without losing queued requests; the crash,
  with its original traceback, is kept for :meth:`health` and used to fail
  requests that cannot be replayed (service already closed).
* **Fail-fast close** — :meth:`close` rejects queued-but-unstarted requests
  with a typed :class:`~repro.serving.errors.ServiceClosedError` immediately
  (no caller is left waiting out a timeout), is idempotent, and makes
  subsequent ``estimate`` calls raise immediately.

All public methods are safe to call from any number of threads.
"""

from __future__ import annotations

import inspect
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.featurization import FeatureBuffers
from repro.db.query import Query
from repro.estimators.base import CardinalityEstimator, subplan_map
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.errors import (
    DeadlineExceededError,
    ModelUnavailableError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serving.stats import ServiceStats, StatsAccumulator
from repro.utils.faults import fault_point
from repro.utils.lru import LRU

__all__ = ["EstimationService", "ServiceConfig"]

_OVERLOAD_POLICIES = ("reject", "degrade")

#: Sentinel distinguishing "no timeout passed" from an explicit ``None``
#: (which disables the deadline entirely).
_UNSET = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`EstimationService`.

    ``batch_window_seconds`` bounds how long the batcher waits for more
    concurrent callers before running a partially filled micro-batch; zero
    disables the wait (lowest latency, least coalescing).  ``max_spread`` is
    the ensemble-disagreement threshold above which a query is routed to the
    fallback estimator; ``max_joins`` routes queries with more joins than the
    model was trained on (``None`` disables join-count routing).

    ``request_timeout_seconds`` is the default per-request deadline (``None``
    disables deadlines); ``deadline_grace_seconds`` is the extra slack a
    caller waits for the batcher's own typed timeout before concluding it on
    its side.  ``max_queue_depth`` bounds the pending queue in *queries*;
    ``overload_policy`` picks what happens beyond it.  The ``breaker_*``
    knobs configure the inference circuit breaker (see
    :class:`~repro.serving.breaker.CircuitBreaker`).
    """

    cache_capacity: int = 4096
    max_batch_size: int = 1024
    batch_window_seconds: float = 0.001
    max_spread: float = 2.0
    max_joins: int | None = None
    request_timeout_seconds: float | None = 60.0
    deadline_grace_seconds: float = 5.0
    max_queue_depth: int = 4096
    overload_policy: str = "reject"
    breaker_failure_threshold: int = 5
    breaker_reset_timeout_seconds: float = 30.0
    breaker_half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.batch_window_seconds < 0:
            raise ValueError("batch_window_seconds must be non-negative")
        if self.max_spread < 1.0:
            raise ValueError("max_spread is a q-error factor and must be >= 1")
        if self.max_joins is not None and self.max_joins < 0:
            raise ValueError("max_joins must be non-negative")
        if self.request_timeout_seconds is not None and self.request_timeout_seconds <= 0:
            raise ValueError("request_timeout_seconds must be positive (or None)")
        if self.deadline_grace_seconds < 0:
            raise ValueError("deadline_grace_seconds must be non-negative")
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        if self.overload_policy not in _OVERLOAD_POLICIES:
            raise ValueError(
                f"overload_policy must be one of {_OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}"
            )
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be >= 1")
        if self.breaker_reset_timeout_seconds < 0:
            raise ValueError("breaker_reset_timeout_seconds must be non-negative")
        if self.breaker_half_open_probes < 1:
            raise ValueError("breaker_half_open_probes must be >= 1")


class _Request:
    """One caller's cache-missed queries plus the future carrying results.

    ``deadline`` is an absolute clock reading (``None`` = no deadline); the
    batcher drops requests past it at dequeue time.  Resolution goes through
    :meth:`resolve`/:meth:`fail` so a request is only ever settled once.
    """

    __slots__ = ("queries", "signatures", "deadline", "future")

    def __init__(
        self,
        queries: list[Query],
        signatures: list[tuple],
        deadline: float | None = None,
    ):
        self.queries = queries
        self.signatures = signatures
        self.deadline = deadline
        self.future: Future = Future()

    def resolve(self, values: np.ndarray) -> None:
        if not self.future.done():
            self.future.set_result(values)

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)


class EstimationService:
    """Serve cardinality estimates to concurrent callers.

    Parameters
    ----------
    model:
        The serving model — an :class:`~repro.core.estimator.MSCNEstimator`
        or :class:`~repro.core.ensemble.EnsembleMSCNEstimator` (anything
        providing ``serving_dataset`` + ``estimate_featurized``; uncertainty
        routing additionally needs ``estimate_featurized_with_uncertainty``).
    fallback:
        Optional traditional estimator that answers low-confidence queries —
        and, in the reliability layer, overload-degraded traffic and batches
        the circuit breaker keeps away from a failing model.
    config:
        A :class:`ServiceConfig`; defaults are sensible for tests and
        examples.
    clock:
        Monotonic time source for deadlines and the circuit breaker;
        injectable so reliability tests run without real waiting.
    """

    def __init__(
        self,
        model,
        *,
        fallback: CardinalityEstimator | None = None,
        config: ServiceConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.fallback = fallback
        self._clock = clock
        self._model = model
        self._generation = 0
        self._model_lock = threading.Lock()
        # Reusable featurization buffers for the zero-copy serving path.
        # Only the single batcher thread featurizes, and each micro-batch is
        # fully answered before the next one is featurized, so one buffer set
        # matches the aliasing lifecycle exactly.  Support is detected per
        # model (by signature, once — not by catching TypeErrors per batch).
        self._feature_buffers = FeatureBuffers()
        self._buffers_supported = self._supports_feature_buffers(model)
        self._cache = LRU(self.config.cache_capacity)
        self._stats = StatsAccumulator()
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_seconds=self.config.breaker_reset_timeout_seconds,
            half_open_max_probes=self.config.breaker_half_open_probes,
            clock=clock,
        )
        self._pending: deque[_Request] = deque()
        self._queued_queries = 0
        self._pending_available = threading.Condition(threading.Lock())
        self._closed = False
        self._worker: threading.Thread | None = None
        self._worker_ever_started = False
        self._last_batcher_crash: BaseException | None = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate(self, query: Query, *, timeout_seconds=_UNSET) -> float:
        """Estimated cardinality of one query (cached, coalesced, routed)."""
        return float(self.estimate_many([query], timeout_seconds=timeout_seconds)[0])

    def estimate_many(
        self, queries: Sequence[Query], *, timeout_seconds=_UNSET
    ) -> np.ndarray:
        """Estimated cardinalities for a sequence of queries.

        Cache hits are answered inline; the misses are submitted to the
        batcher as one request, where they coalesce with every other caller's
        in-flight misses into shared fused passes.

        ``timeout_seconds`` overrides the configured per-request deadline for
        this call (``None`` disables it).  An expired request resolves with a
        typed :class:`DeadlineExceededError`; an over-admission request with
        a :class:`ServiceOverloadedError` (or a degraded fallback answer,
        per ``overload_policy``); a closed service with a
        :class:`ServiceClosedError` — never a silent hang.
        """
        if self._closed:
            raise ServiceClosedError("the estimation service has been closed")
        if not queries:
            return np.empty(0, dtype=np.float64)
        if timeout_seconds is _UNSET:
            timeout_seconds = self.config.request_timeout_seconds
        deadline = None if timeout_seconds is None else self._clock() + timeout_seconds
        signatures = [query.signature() for query in queries]
        results = np.empty(len(queries), dtype=np.float64)
        miss_positions: list[int] = []
        hits = 0
        for position, signature in enumerate(signatures):
            cached = self._cache.get(signature)
            if cached is None:
                miss_positions.append(position)
            else:
                results[position] = cached
                hits += 1
        self._stats.record_lookups(hits, len(miss_positions))
        if miss_positions:
            request = _Request(
                [queries[i] for i in miss_positions],
                [signatures[i] for i in miss_positions],
                deadline,
            )
            if self._admit(request):
                results[miss_positions] = self._await_result(request, deadline)
            else:
                # Overload-degraded: answered inline by the fallback, not
                # queued — and never published to the model's result cache.
                results[miss_positions] = self._degrade(request.queries)
        return results

    def estimate_subplans(self, query: Query) -> dict[frozenset[str], float]:
        """Estimates for every connected sub-plan of ``query``.

        The optimizer-shaped entry point: one plan-enumeration request fans
        out into every connected subgraph of the query.  The sub-queries are
        routed through :meth:`estimate_many`, so each sub-plan is answered
        from the signature-keyed cache when any earlier request — including a
        *different* query sharing the sub-plan, or a previous enumeration of
        the same query — already computed it; only genuinely new sub-plans
        reach the model, coalesced into one micro-batch.
        """
        subqueries = query.connected_subqueries()
        return subplan_map(subqueries, self.estimate_many(subqueries))

    @staticmethod
    def _supports_feature_buffers(model) -> bool:
        """Whether ``model.serving_dataset`` accepts a ``buffers`` argument."""
        serving_dataset = getattr(model, "serving_dataset", None)
        if serving_dataset is None:
            return False
        try:
            return "buffers" in inspect.signature(serving_dataset).parameters
        except (TypeError, ValueError):  # builtins / C callables
            return False

    def stats(self) -> ServiceStats:
        """An immutable snapshot of the service counters and latencies."""
        with self._model_lock:
            model = self._model
        return self._stats.snapshot(
            cache_evictions=self._cache.evictions,
            scratch_high_water_bytes=int(
                getattr(model, "scratch_high_water_bytes", 0)
            ),
            feature_buffer_bytes=self._feature_buffers.nbytes,
            feature_arena_high_water_bytes=self._feature_buffers.high_water_bytes,
            feature_arena_reuse_rate=self._feature_buffers.reuse_rate,
            scratch_reuse_rate=float(getattr(model, "scratch_reuse_rate", 0.0)),
            breaker_state=self._breaker.state,
            breaker_opens=self._breaker.opens,
        )

    def health(self) -> dict:
        """A health/readiness snapshot for probes and operators.

        ``healthy`` means the service accepts traffic and the model path is
        trusted (breaker not open); ``ready`` additionally requires headroom
        in the pending queue.  ``last_batcher_crash`` carries the traceback
        text of the most recent batcher death (the watchdog restarts the
        thread, but the diagnostic is preserved).
        """
        worker = self._worker
        with self._pending_available:
            closed = self._closed
            queue_depth = self._queued_queries
            crash = self._last_batcher_crash
        breaker_state = self._breaker.state
        healthy = not closed and breaker_state != BreakerState.OPEN
        return {
            "healthy": healthy,
            "ready": healthy and queue_depth < self.config.max_queue_depth,
            "closed": closed,
            "breaker_state": breaker_state,
            "breaker_opens": self._breaker.opens,
            "queue_depth": queue_depth,
            "max_queue_depth": self.config.max_queue_depth,
            "batcher_alive": worker.is_alive() if worker is not None else False,
            "last_batcher_crash": (
                getattr(crash, "traceback_text", str(crash)) if crash is not None else None
            ),
            "cache": self._cache.stats(),
            "model_generation": self._generation,
        }

    @property
    def model(self):
        """The currently serving model."""
        with self._model_lock:
            return self._model

    @property
    def cache(self) -> LRU:
        return self._cache

    @property
    def breaker(self) -> CircuitBreaker:
        """The inference circuit breaker (read-mostly; the batcher drives it)."""
        return self._breaker

    def swap_model(self, model) -> None:
        """Atomically replace the serving model and invalidate the cache.

        The generation bump and the cache clear happen under the model lock,
        so a micro-batch computed against the old model (its generation no
        longer matches) can never publish stale estimates afterwards.  A
        successful swap also closes the circuit breaker: the failure history
        of the retired model says nothing about the new one.
        """
        buffers_supported = self._supports_feature_buffers(model)
        with self._model_lock:
            self._model = model
            self._generation += 1
            self._buffers_supported = buffers_supported
            self._cache.clear()
        # The new model may featurize to different widths/dtype; dropping the
        # backing arrays here (instead of relying on width-mismatch regrowth)
        # keeps a swap from pinning the old schema's buffers forever.  The
        # generation bump also resets the grow-only guarantee: capacities
        # are monotone within a model generation, not across swaps.
        self._feature_buffers.advance_generation()
        self._breaker.record_success()
        self._stats.record_swap()

    def swap_from_registry(
        self, registry, name: str, version: int | None = None, retry=None
    ) -> None:
        """Hot-swap to a :class:`~repro.serving.registry.ModelRegistry` model.

        ``retry`` is an optional :class:`~repro.serving.registry.RetryPolicy`
        for transient load failures; load errors (typed) propagate without
        touching the currently serving model, so a failed swap never degrades
        live traffic.
        """
        self.swap_model(registry.load(name, version, retry=retry))

    def close(self) -> None:
        """Stop the batcher and resolve every queued request immediately.

        Queued-but-unstarted requests resolve with a typed
        :class:`ServiceClosedError` (no caller is left waiting out its
        timeout); a micro-batch already computing finishes and delivers its
        results.  Repeated ``close()`` is a no-op, and ``estimate()`` after
        close raises immediately.
        """
        with self._pending_available:
            self._closed = True
            worker = self._worker
            self._pending_available.notify_all()
        if worker is not None:
            worker.join(timeout=10.0)
        self._fail_pending(ServiceClosedError("the estimation service has been closed"))

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission control and request resolution
    # ------------------------------------------------------------------
    def _admit(self, request: _Request) -> bool:
        """Queue the request for the batcher, or decide to degrade it.

        Returns ``True`` when queued; ``False`` when the caller should
        answer it inline via the fallback (overload + ``degrade`` policy).
        Raises :class:`ServiceOverloadedError` when the queue is full and
        shedding is the policy (or there is nothing to degrade to), and
        :class:`ServiceClosedError` when the service closed meanwhile.
        """
        self._ensure_worker()
        with self._pending_available:
            if self._closed:
                raise ServiceClosedError("the estimation service has been closed")
            depth = self._queued_queries
            # The bound limits work queued *behind* other requests: a single
            # oversized request entering an empty queue is admitted (it could
            # never run otherwise), but nothing may pile up beyond the depth.
            if depth > 0 and depth + len(request.queries) > self.config.max_queue_depth:
                if self.config.overload_policy == "degrade" and self.fallback is not None:
                    return False
                self._stats.record_shed(len(request.queries))
                raise ServiceOverloadedError(
                    f"pending queue is full ({depth} queries queued, "
                    f"max_queue_depth={self.config.max_queue_depth})",
                    queued_queries=depth,
                    max_queue_depth=self.config.max_queue_depth,
                )
            self._pending.append(request)
            self._queued_queries += len(request.queries)
            self._pending_available.notify()
            return True

    def _await_result(self, request: _Request, deadline: float | None) -> np.ndarray:
        """Wait for the batcher to settle the request, bounded by its deadline.

        The batcher resolves expired requests with the typed error itself;
        the grace period only covers the window where the batcher is wedged
        mid-computation — after it, the caller concludes the timeout on its
        side so no request ever outlives ``deadline + grace``.
        """
        if deadline is None:
            timeout = None
        else:
            remaining = max(0.0, deadline - self._clock())
            timeout = remaining + self.config.deadline_grace_seconds
        try:
            return request.future.result(timeout=timeout)
        except FutureTimeoutError:
            raise DeadlineExceededError(
                "request deadline expired while waiting for the batcher"
            ) from None

    def _degrade(self, queries: list[Query]) -> np.ndarray:
        """Answer queries via the fallback estimator (reliability-degraded).

        Degraded estimates are intentionally *not* published to the result
        cache: they are a transient substitute, and once the model path
        recovers the cache must only ever reflect model output — that is
        what makes post-recovery serving bit-identical to the pre-fault
        path.
        """
        if self.fallback is None:
            raise ModelUnavailableError(
                "the model path is unavailable and no fallback estimator is configured"
            )
        start = time.perf_counter()
        values = np.asarray(self.fallback.estimate_many(queries), dtype=np.float64)
        self._stats.record_degraded(len(queries), time.perf_counter() - start)
        return values

    def _fail_pending(self, error: BaseException) -> None:
        """Settle every queued request with ``error`` (close/crash path)."""
        with self._pending_available:
            pending = list(self._pending)
            self._pending.clear()
            self._queued_queries = 0
        for request in pending:
            request.fail(error)

    # ------------------------------------------------------------------
    # Batching worker and watchdog
    # ------------------------------------------------------------------
    def _ensure_worker(self) -> None:
        """Start the batcher thread, restarting it if it died (watchdog).

        The aliveness check runs on every admission, so even a thread killed
        without its own crash handler running is replaced before new work
        queues behind it.  Queued requests survive a restart untouched: the
        replacement thread drains the same deque.
        """
        worker = self._worker
        if worker is not None and worker.is_alive():
            return
        with self._pending_available:
            if self._closed:
                return
            if self._worker is not None and not self._worker.is_alive():
                self._worker = None
            if self._worker is None:
                if self._worker_ever_started:
                    self._stats.record_batcher_restart()
                worker = threading.Thread(
                    target=self._worker_loop,
                    name="estimation-service-batcher",
                    daemon=True,
                )
                self._worker = worker
                self._worker_ever_started = True
                worker.start()

    def _worker_loop(self) -> None:
        try:
            while True:
                fault_point("batcher.loop")
                requests = self._next_batch()
                if requests is None:
                    return
                self._process(requests)
        except BaseException as error:  # noqa: BLE001 — the thread must not die silently
            from repro.serving.errors import BatcherCrashedError

            crash = BatcherCrashedError(
                f"estimation batcher thread crashed: {error!r}",
                traceback_text=traceback.format_exc(),
            )
            crash.__cause__ = error
            me = threading.current_thread()
            with self._pending_available:
                self._last_batcher_crash = crash
                if self._worker is me:
                    self._worker = None
                closed = self._closed
            if closed:
                # No watchdog will run again: fail fast with the diagnostic
                # instead of letting queued callers wait out their timeouts.
                self._fail_pending(crash)
            else:
                # Watchdog: replace the dead thread; queued requests are
                # still in the deque and are drained by the replacement.
                self._ensure_worker()

    def _next_batch(self) -> list[_Request] | None:
        """Block for work, then coalesce concurrent requests into one batch.

        After the first request arrives the batcher keeps the window open for
        ``batch_window_seconds`` (or until ``max_batch_size`` queries are
        pending), so bursts from many threads drain as a handful of fused
        passes instead of one pass per caller.  A closed service stops
        dequeuing immediately — the queued remainder is settled with typed
        errors by :meth:`close`.
        """
        with self._pending_available:
            while not self._pending and not self._closed:
                self._pending_available.wait()
            if self._closed:
                return None
            deadline = time.monotonic() + self.config.batch_window_seconds
            while not self._closed:
                if sum(len(r.queries) for r in self._pending) >= self.config.max_batch_size:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._pending_available.wait(remaining)
            if self._closed:
                return None
            requests: list[_Request] = []
            quota = self.config.max_batch_size
            while self._pending and quota > 0:
                request = self._pending.popleft()
                self._queued_queries -= len(request.queries)
                requests.append(request)
                quota -= len(request.queries)
            return requests

    def _process(self, requests: list[_Request]) -> None:
        """Answer a coalesced batch: expire, dedupe, one fused pass, scatter.

        Requests past their deadline are settled with the typed timeout error
        *before* featurization — their queries never become dead work (unless
        a still-live request shares them).
        """
        now = self._clock()
        live: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self._stats.record_expired(len(request.queries))
                request.fail(
                    DeadlineExceededError(
                        "request deadline expired while queued; dropped at dequeue"
                    )
                )
            else:
                live.append(request)
        if not live:
            return
        try:
            unique: dict[tuple, Query] = {}
            for request in live:
                for query, signature in zip(request.queries, request.signatures):
                    unique.setdefault(signature, query)
            resolved: dict[tuple, float] = {}
            to_compute: list[tuple[tuple, Query]] = []
            for signature, query in unique.items():
                # A concurrent batch (or a swap-preceding batch) may have
                # answered this signature since the caller's miss; peek so
                # these internal probes don't skew the request hit rate.
                cached = self._cache.peek(signature)
                if cached is None:
                    to_compute.append((signature, query))
                else:
                    resolved[signature] = cached
            if to_compute:
                estimates, cacheable, generation = self._compute_guarded(
                    [q for _, q in to_compute]
                )
                fresh = {
                    signature: float(value)
                    for (signature, _), value in zip(to_compute, estimates)
                }
                resolved.update(fresh)
                if cacheable:
                    self._publish(fresh, generation)
            for request in live:
                request.resolve(
                    np.array(
                        [resolved[s] for s in request.signatures], dtype=np.float64
                    )
                )
        except BaseException as error:  # noqa: BLE001 — must reach the callers
            for request in live:
                request.fail(error)

    def _publish(self, fresh: dict[tuple, float], generation: int) -> None:
        """Insert computed estimates, unless the model was swapped meanwhile."""
        with self._model_lock:
            if generation != self._generation:
                return
            for signature, value in fresh.items():
                self._cache.put(signature, value)

    # ------------------------------------------------------------------
    # Model execution behind the circuit breaker
    # ------------------------------------------------------------------
    def _compute_guarded(
        self, queries: list[Query]
    ) -> tuple[np.ndarray, bool, int]:
        """Run the model behind the breaker, degrading on failure.

        Returns ``(estimates, cacheable, generation)``: model output is
        cacheable under its generation; fallback-degraded output is not
        (transient substitutes must never poison the cache).
        """
        if self._breaker.allow():
            try:
                estimates, generation = self._compute(queries)
            except Exception as error:
                self._breaker.record_failure()
                self._stats.record_inference_failure()
                if self.fallback is None:
                    raise ModelUnavailableError(
                        f"model inference failed and no fallback estimator "
                        f"is configured: {error!r}"
                    ) from error
                return self._degrade(queries), False, -1
            self._breaker.record_success()
            return estimates, True, generation
        # Breaker open: the model is not touched at all.
        return self._degrade(queries), False, -1

    def _compute(self, queries: list[Query]) -> tuple[np.ndarray, int]:
        """One fused featurize+infer pass plus fallback routing.

        Returns the estimates and the model generation they were computed
        under (for the stale-publish guard).
        """
        with self._model_lock:
            model = self._model
            generation = self._generation
            buffers_supported = self._buffers_supported
        samples = getattr(model, "samples", None)
        hits_before = samples.bitmap_cache_hits if samples is not None else 0
        start = time.perf_counter()
        if buffers_supported:
            # Zero-copy: the dataset views the service's reusable buffers.
            # Safe because only this (single) batcher thread featurizes and
            # the micro-batch is fully consumed before the next one starts.
            # The lease scopes one micro-batch's scratch lifetime: if no
            # array grew, the batch counts as served from recycled capacity
            # (surfaced as ``feature_arena_reuse_rate``).
            with self._feature_buffers.lease():
                dataset = model.serving_dataset(queries, buffers=self._feature_buffers)
        else:
            dataset = model.serving_dataset(queries)
        featurization_seconds = time.perf_counter() - start
        hits_after = samples.bitmap_cache_hits if samples is not None else 0

        start = time.perf_counter()
        spreads = None
        if hasattr(model, "estimate_featurized_with_uncertainty"):
            estimates, spreads, _ = model.estimate_featurized_with_uncertainty(dataset)
        else:
            estimates = model.estimate_featurized(dataset)
        inference_seconds = time.perf_counter() - start
        estimates = np.array(estimates, dtype=np.float64)
        self._stats.record_batch(
            batch_size=len(queries),
            featurization_seconds=featurization_seconds,
            inference_seconds=inference_seconds,
            bitmap_cache_hits=hits_after - hits_before,
        )

        if self.fallback is not None:
            routed = self._route_to_fallback(queries, spreads)
            if routed.any():
                routed_queries = [q for q, r in zip(queries, routed) if r]
                start = time.perf_counter()
                estimates[routed] = self.fallback.estimate_many(routed_queries)
                self._stats.record_fallback(
                    len(routed_queries), time.perf_counter() - start
                )
        return estimates, generation

    def _route_to_fallback(
        self, queries: list[Query], spreads: np.ndarray | None
    ) -> np.ndarray:
        """Which queries the model should not be trusted on (Section 5)."""
        routed = np.zeros(len(queries), dtype=bool)
        if self.config.max_joins is not None:
            routed |= np.array(
                [query.num_joins > self.config.max_joins for query in queries]
            )
        if spreads is not None:
            routed |= np.asarray(spreads) > self.config.max_spread
        return routed
