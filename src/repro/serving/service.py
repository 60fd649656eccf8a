"""The micro-batched, cache-fronted, fault-tolerant estimation service.

:class:`EstimationService` is the traffic-facing layer above the model's
forward pass (Section 4.7's sub-millisecond serving path) and implements
the deployment recipe of the paper's Section 5 discussion:

* **Result caching** — queries are canonicalized via ``Query.signature()``
  into a signature-keyed LRU, so the repetitive traffic an optimizer
  generates (the same subqueries costed across plan enumerations) is
  answered without touching the model at all.
* **Caller-runs micro-batching** — cache misses from concurrent callers are
  queued; a waiting caller that finds no batch running becomes the leader,
  takes the queued requests (up to ``max_batch_size`` queries, FIFO) and
  answers the model-bound ones with one ``model.timed_estimate_many`` call
  (one featurization and one fused forward pass) on its own thread, while
  callers arriving meanwhile queue for the next leader.  Set-wise MLPs and
  pooling amortize across every in-flight request instead of running per
  caller; both steps allocate fresh arrays, so nothing stays pinned between
  micro-batches.  The service starts no thread of its own.
* **Join-count-routed fallback** — a batch's queries with more joins than
  the model was trained on (``max_joins``) are split off before any model
  work and answered by a configurable traditional
  :class:`~repro.estimators.base.CardinalityEstimator` (e.g.
  PostgreSQL-style statistics or random sampling) in one call, the hybrid
  the paper's Section 5 proposes for queries outside the training
  distribution.  Their answers are cached like the model's.
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
  to ``request_timeout_seconds``); the leader removes expired requests at
  dequeue time — their queries are *not* featurized or inferred as dead
  work — and resolves them with a typed
  :class:`~repro.serving.errors.DeadlineExceededError`.
* **Circuit breaker** — consecutive inference failures open a
  :class:`~repro.serving.breaker.CircuitBreaker`; while open, a batch's
  model-bound queries degrade to the fallback estimator without touching
  the model (typed :class:`~repro.serving.errors.ModelUnavailableError`
  when there is no fallback), and half-open probes test recovery.
  Join-count routing happens before the breaker is asked, so routed
  queries are answered and cached the same way whatever its state.
  Degraded estimates are **never** published to the result cache, so once
  the breaker closes the served values are bit-identical to the pre-fault
  path.  A batch that fails in any other way (a failing fallback
  included) fails only its own requests; the next caller leads the next
  batch.
* **Fail-fast close** — :meth:`close` rejects queued-but-unstarted requests
  with a typed :class:`~repro.serving.errors.ServiceClosedError` immediately
  (no caller is left waiting out a timeout), is idempotent, and makes
  subsequent ``estimate`` calls raise immediately.

All public methods are safe to call from any number of threads.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.db.query import Query
from repro.estimators.base import CardinalityEstimator
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.errors import (
    DeadlineExceededError,
    ModelUnavailableError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serving.stats import ServiceStats, StatsAccumulator
from repro.utils.lru import LRU

__all__ = ["EstimationService", "ServiceConfig"]

_OVERLOAD_POLICIES = ("reject", "degrade")

#: The float settings that must be finite (``None`` still disables a deadline).
_FINITE_FIELDS = (
    "request_timeout_seconds",
    "deadline_grace_seconds",
    "breaker_reset_timeout_seconds",
)

#: Sentinel distinguishing "no timeout passed" from an explicit ``None``
#: (which disables the deadline entirely).
_UNSET = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`EstimationService`.

    ``max_batch_size`` bounds the queries one leader takes into a micro-batch.
    ``max_joins`` routes queries with more joins than the model was trained
    on to the fallback estimator (``None`` disables routing).

    ``request_timeout_seconds`` is the default per-request deadline (``None``
    disables deadlines); ``deadline_grace_seconds`` is the extra slack a
    queued caller waits for the leader's own typed timeout before concluding
    it on its side.  ``max_queue_depth`` bounds the pending queue in
    *queries*; ``overload_policy`` picks what happens beyond it.  The ``breaker_*``
    knobs configure the inference circuit breaker (see
    :class:`~repro.serving.breaker.CircuitBreaker`).
    """

    cache_capacity: int = 4096
    max_batch_size: int = 1024
    max_joins: int | None = None
    request_timeout_seconds: float | None = 60.0
    deadline_grace_seconds: float = 5.0
    max_queue_depth: int = 4096
    overload_policy: str = "reject"
    breaker_failure_threshold: int = 5
    breaker_reset_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        # NaN passes every ordered comparison below, and an infinite wait
        # overflows ``Condition.wait``: both are rejected first.
        for name in _FINITE_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.cache_capacity <= 0:
            raise ValueError("cache_capacity must be positive")
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
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


class _Request:
    """One caller's cache-missed queries plus the future carrying results.

    ``deadline`` is an absolute clock reading (``None`` = no deadline); the
    leader drops requests past it at dequeue time.  Resolution goes through
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


class EstimationService(CardinalityEstimator):
    """Serve cardinality estimates to concurrent callers.

    The service is itself a
    :class:`~repro.estimators.base.CardinalityEstimator`: the inherited
    ``estimate_subplans`` routes a query's sub-plan fan-out through
    :meth:`estimate_many`, so every sub-plan an earlier request (of this or
    another query) computed is answered from the result cache, and only the
    new ones reach the model, coalesced into one micro-batch.

    Batches are run by the callers themselves: one leader at a time takes
    the queued misses and computes them on its own thread, so batches never
    overlap.  A leader's own wait is therefore bounded by the model call, as
    with a direct ``estimate_many``; a caller queued behind it waits at most
    ``deadline + deadline_grace_seconds`` (measured in real time) before it
    concludes the timeout itself.

    Parameters
    ----------
    model:
        The serving model — an :class:`~repro.core.estimator.MSCNEstimator`
        (anything providing ``timed_estimate_many``).
    fallback:
        Optional traditional estimator that answers queries beyond
        ``max_joins`` — and, in the reliability layer, overload-degraded
        traffic and batches the circuit breaker keeps away from a failing
        model.
    config:
        A :class:`ServiceConfig`; defaults are sensible for tests and
        examples.
    clock:
        Monotonic time source for deadlines and the circuit breaker;
        injectable so reliability tests run without real waiting.
    """

    name = "Estimation service"

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
        self._cache = LRU(self.config.cache_capacity)
        self._stats = StatsAccumulator()
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            reset_timeout_seconds=self.config.breaker_reset_timeout_seconds,
            clock=clock,
        )
        self._pending: deque[_Request] = deque()
        self._queued_queries = 0
        self._pending_available = threading.Condition(threading.Lock())
        self._batch_running = False
        self._closed = False

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

        Cache hits are answered inline; the misses are queued as one request,
        where they coalesce with every other caller's queued misses into
        shared fused passes (run by this caller when it leads a batch).

        ``timeout_seconds`` overrides the configured per-request deadline for
        this call (``None`` disables it); a non-finite value raises
        ``ValueError`` before anything is queued.  An expired request resolves with a
        typed :class:`DeadlineExceededError`; an over-admission request with
        a :class:`ServiceOverloadedError` (or a degraded fallback answer,
        per ``overload_policy``); a closed service with a
        :class:`ServiceClosedError` — never a silent hang.
        """
        if self._closed:
            raise ServiceClosedError("the estimation service has been closed")
        if timeout_seconds is _UNSET:
            timeout_seconds = self.config.request_timeout_seconds
        elif timeout_seconds is not None and not math.isfinite(timeout_seconds):
            raise ValueError(f"timeout_seconds must be finite, got {timeout_seconds!r}")
        if not queries:
            return np.empty(0, dtype=np.float64)
        deadline = None if timeout_seconds is None else self._clock() + timeout_seconds
        signatures = [query.signature() for query in queries]
        cached = self._cache.get_many(signatures)
        miss_positions = [position for position, value in enumerate(cached) if value is None]
        self._stats.record_lookups(len(queries) - len(miss_positions), len(miss_positions))
        # Misses hold NaN only until their computed values overwrite them.
        results = np.array(
            [math.nan if value is None else value for value in cached], dtype=np.float64
        )
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
                results[miss_positions] = self._ask_fallback(request.queries)
        return results

    def stats(self) -> ServiceStats:
        """An immutable snapshot of the service counters and latencies."""
        return self._stats.snapshot(
            cache_evictions=self._cache.evictions,
            breaker_state=self._breaker.state,
            breaker_opens=self._breaker.opens,
        )

    def health(self) -> dict:
        """A health/readiness snapshot for probes and operators.

        ``healthy`` means the service accepts traffic and the model path is
        trusted (breaker not open); ``ready`` additionally requires headroom
        in the pending queue.
        """
        with self._pending_available:
            closed = self._closed
            queue_depth = self._queued_queries
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
        """The inference circuit breaker (read-mostly; batch leaders drive it)."""
        return self._breaker

    def swap_model(self, model) -> None:
        """Atomically replace the serving model and invalidate the cache.

        The generation bump and the cache clear happen under the model lock,
        so a micro-batch computed against the old model (its generation no
        longer matches) can never publish stale estimates afterwards.  A
        successful swap also closes the circuit breaker: the failure history
        of the retired model says nothing about the new one.
        """
        with self._model_lock:
            self._model = model
            self._generation += 1
            self._cache.clear()
        self._breaker.record_success()
        self._stats.add(model_swaps=1)

    def close(self) -> None:
        """Resolve every queued request immediately and refuse new ones.

        Queued-but-unstarted requests resolve with a typed
        :class:`ServiceClosedError` (no caller is left waiting out its
        timeout); a micro-batch already computing finishes and delivers its
        results.  ``close()`` never waits for that batch.  Repeated
        ``close()`` is a no-op, and ``estimate()`` after close raises
        immediately.
        """
        error = ServiceClosedError("the estimation service has been closed")
        with self._pending_available:
            self._closed = True
            for request in self._pending:
                request.fail(error)
            self._pending.clear()
            self._queued_queries = 0
            self._pending_available.notify_all()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Admission control and request resolution
    # ------------------------------------------------------------------
    def _admit(self, request: _Request) -> bool:
        """Queue the request for the next batch, or decide to degrade it.

        Returns ``True`` when queued; ``False`` when the caller should
        answer it inline via the fallback (overload + ``degrade`` policy).
        Raises :class:`ServiceOverloadedError` when the queue is full and
        shedding is the policy (or there is nothing to degrade to), and
        :class:`ServiceClosedError` when the service closed meanwhile.
        """
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
                self._stats.add(shed_queries=len(request.queries))
                raise ServiceOverloadedError(
                    f"pending queue is full ({depth} queries queued, "
                    f"max_queue_depth={self.config.max_queue_depth})",
                    queued_queries=depth,
                    max_queue_depth=self.config.max_queue_depth,
                )
            self._pending.append(request)
            self._queued_queries += len(request.queries)
            return True

    def _await_result(self, request: _Request, deadline: float | None) -> np.ndarray:
        """Settle the request, leading batches whenever none is running.

        While another caller's batch runs, this caller waits on the pending
        condition.  When no batch runs and requests are queued, it becomes
        the leader: it takes a batch (which holds its own request unless the
        queue ahead of it fills ``max_batch_size``) and runs it on this
        thread, then wakes every waiter.  The leader resolves expired
        requests with the typed error itself; the grace period only covers a
        leader wedged mid-computation — after it, a queued caller concludes
        the timeout on its side, so no queued request outlives
        ``deadline + grace``.
        """
        if deadline is None:
            give_up_at = None
        else:
            remaining = max(0.0, deadline - self._clock())
            give_up_at = time.monotonic() + remaining + self.config.deadline_grace_seconds
        while True:
            with self._pending_available:
                while not request.future.done() and (self._batch_running or not self._pending):
                    timeout = None if give_up_at is None else give_up_at - time.monotonic()
                    if timeout is not None and timeout <= 0:
                        # Not taken by a batch yet: drop it here, counted as
                        # expired as if a leader had dropped it at dequeue.
                        if request in self._pending:
                            self._pending.remove(request)
                            self._queued_queries -= len(request.queries)
                            self._stats.add(expired_queries=len(request.queries))
                        raise DeadlineExceededError(
                            "request deadline expired while waiting for a batch"
                        )
                    self._pending_available.wait(timeout)
                if request.future.done():
                    return request.future.result()
                batch = self._take_batch()
                self._batch_running = True
            try:
                self._process(batch)
            finally:
                with self._pending_available:
                    self._batch_running = False
                    self._pending_available.notify_all()

    def _ask_fallback(
        self, queries: list[Query], counter: str = "degraded_queries"
    ) -> np.ndarray:
        """Answer queries via the fallback estimator, counted under ``counter``.

        ``fallback_queries`` are routed on join count and cached like model
        output.  ``degraded_queries`` stand in for an unavailable model path
        and are intentionally *not* published to the result cache: once the
        model path recovers the cache must only ever reflect what a healthy
        service computes — that is what makes post-recovery serving
        bit-identical to the pre-fault path.
        """
        if self.fallback is None:
            raise ModelUnavailableError(
                "the model path is unavailable and no fallback estimator is configured"
            )
        start = time.perf_counter()
        values = np.asarray(self.fallback.estimate_many(queries), dtype=np.float64)
        self._stats.add(**{counter: len(queries)}, fallback_seconds=time.perf_counter() - start)
        return values

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def _take_batch(self) -> list[_Request]:
        """Pop queued requests FIFO, up to ``max_batch_size`` queries.

        Called with the pending lock held.  A request is never split, so the
        last one taken may overshoot the quota.
        """
        requests: list[_Request] = []
        quota = self.config.max_batch_size
        while self._pending and quota > 0:
            request = self._pending.popleft()
            self._queued_queries -= len(request.queries)
            requests.append(request)
            quota -= len(request.queries)
        return requests

    def _process(self, requests: list[_Request]) -> None:
        """Answer a coalesced batch: expire, dedupe, route, one model call, scatter.

        Requests past their deadline are settled with the typed timeout error
        *before* featurization — their queries never become dead work (unless
        a still-live request shares them).  The uncached queries are split
        once on their join count: those beyond ``max_joins`` go to the
        fallback in one call, and only the rest reach the model.
        """
        now = self._clock()
        live: list[_Request] = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self._stats.add(expired_queries=len(request.queries))
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
            routed: dict[tuple, Query] = {}
            model_bound: dict[tuple, Query] = {}
            max_joins = self.config.max_joins if self.fallback is not None else None
            for signature, query in unique.items():
                # An earlier batch (possibly a swap-preceding one) may have
                # answered this signature since the caller's miss; peek so
                # these internal probes don't skew the request hit rate.
                cached = self._cache.peek(signature)
                if cached is not None:
                    resolved[signature] = cached
                elif max_joins is not None and query.num_joins > max_joins:
                    routed[signature] = query
                else:
                    model_bound[signature] = query
            if routed or model_bound:
                with self._model_lock:
                    model, generation = self._model, self._generation
                cacheable: dict[tuple, float] = {}
                if routed:
                    values = self._ask_fallback(list(routed.values()), "fallback_queries")
                    cacheable.update(zip(routed, values.tolist()))
                if model_bound:
                    estimates, from_model = self._compute_guarded(
                        model, list(model_bound.values())
                    )
                    answers = dict(zip(model_bound, estimates))
                    if from_model:
                        cacheable.update(answers)
                    else:
                        resolved.update(answers)
                resolved.update(cacheable)
                self._publish(cacheable, generation)
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
    def _compute_guarded(self, model, queries: list[Query]) -> tuple[list[float], bool]:
        """Run the model behind the breaker, degrading on failure.

        Returns ``(estimates, from_model)``: model output is cacheable;
        fallback-degraded output is not (transient substitutes must never
        poison the cache).
        """
        if self._breaker.allow():
            try:
                estimates, timing = model.timed_estimate_many(queries)
            except Exception as error:
                self._breaker.record_failure()
                self._stats.add(inference_failures=1)
                if self.fallback is None:
                    raise ModelUnavailableError(
                        f"model inference failed and no fallback estimator "
                        f"is configured: {error!r}"
                    ) from error
                return self._ask_fallback(queries).tolist(), False
            self._breaker.record_success()
            self._stats.record_batch(timing)
            return np.asarray(estimates, dtype=np.float64).tolist(), True
        # Breaker open: the model is not touched at all.
        return self._ask_fallback(queries).tolist(), False
