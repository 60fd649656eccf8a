"""Service-level observability: an extended :class:`PredictionTiming`.

:class:`ServiceStats` is an immutable snapshot of everything an operator
needs to judge a running :class:`~repro.serving.service.EstimationService`:
the per-stage latency breakdown inherited from
:class:`~repro.core.estimator.PredictionTiming`, plus cache effectiveness,
fallback routing volume, the micro-batch size histogram (how well concurrent
callers coalesce) and the reliability-layer counters — shed / degraded /
expired request volume, circuit-breaker state and open count, batcher
watchdog restarts.  :class:`StatsAccumulator` is its mutable, lock-protected
counterpart the service updates on the hot path.  There are no memory
gauges: neither featurization nor inference keeps buffers between
micro-batches.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.estimator import PredictionTiming
from repro.serving.breaker import BreakerState

__all__ = ["ServiceStats", "StatsAccumulator"]


@dataclass(frozen=True)
class ServiceStats(PredictionTiming):
    """A point-in-time snapshot of service counters and latencies.

    ``num_queries`` counts every query answered (cached or computed);
    ``featurization_seconds``/``inference_seconds`` cover only the queries
    that reached the model, and ``fallback_seconds`` the ones routed to the
    traditional estimator.  ``batch_size_histogram`` maps fused micro-batch
    sizes to how often they occurred.

    The reliability counters partition failure handling: ``shed_queries``
    were rejected by admission control (typed
    :class:`~repro.serving.errors.ServiceOverloadedError`), ``degraded_queries``
    were answered by the fallback estimator because the model path was
    unavailable (overload-degrade policy, open circuit breaker, or an
    inference failure) — distinct from ``fallback_queries``, which counts
    deliberate uncertainty routing — and ``expired_queries`` missed their
    deadline and were answered with a typed timeout error instead of being
    featurized as dead work.
    """

    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    fallback_queries: int = 0
    fallback_seconds: float = 0.0
    coalesced_batches: int = 0
    model_swaps: int = 0
    batch_size_histogram: dict[int, int] = field(default_factory=dict)
    #: Queries rejected by admission control (bounded queue, reject policy).
    shed_queries: int = 0
    #: Queries answered by the fallback because the model path was down.
    degraded_queries: int = 0
    #: Queries that expired before compute and got a typed timeout error.
    expired_queries: int = 0
    #: Inference attempts the circuit breaker recorded as failures.
    inference_failures: int = 0
    #: Circuit-breaker state at snapshot time (closed / open / half_open).
    breaker_state: str = BreakerState.CLOSED
    #: How many times the breaker has opened since the service started.
    breaker_opens: int = 0
    #: How many times the watchdog restarted a dead batcher thread.
    batcher_restarts: int = 0

    @property
    def total_seconds(self) -> float:
        return self.featurization_seconds + self.inference_seconds + self.fallback_seconds

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of answered queries served straight from the cache."""
        if self.num_queries == 0:
            return 0.0
        return self.cache_hits / self.num_queries

    @property
    def fallback_rate(self) -> float:
        """Fraction of answered queries routed to the fallback estimator."""
        if self.num_queries == 0:
            return 0.0
        return self.fallback_queries / self.num_queries

    @property
    def mean_batch_size(self) -> float:
        """Average fused micro-batch size (1.0 means no coalescing happened)."""
        total = sum(size * count for size, count in self.batch_size_histogram.items())
        batches = sum(self.batch_size_histogram.values())
        if batches == 0:
            return 0.0
        return total / batches

    def describe(self) -> str:
        """A one-paragraph human-readable summary (examples, smoke logs)."""
        summary = (
            f"{self.num_queries} queries: {self.cache_hits} cache hits "
            f"({100.0 * self.cache_hit_rate:.1f}%), {self.fallback_queries} fallbacks "
            f"({100.0 * self.fallback_rate:.1f}%), {self.coalesced_batches} fused batches "
            f"(mean size {self.mean_batch_size:.1f}), "
            f"featurize {1000.0 * self.featurization_seconds:.2f} ms, "
            f"infer {1000.0 * self.inference_seconds:.2f} ms, "
            f"fallback {1000.0 * self.fallback_seconds:.2f} ms"
        )
        if (
            self.shed_queries
            or self.degraded_queries
            or self.expired_queries
            or self.inference_failures
            or self.batcher_restarts
            or self.breaker_state != BreakerState.CLOSED
        ):
            summary += (
                f"; reliability: breaker {self.breaker_state} "
                f"({self.breaker_opens} opens), {self.shed_queries} shed, "
                f"{self.degraded_queries} degraded, {self.expired_queries} expired, "
                f"{self.inference_failures} inference failures, "
                f"{self.batcher_restarts} batcher restarts"
            )
        return summary


class StatsAccumulator:
    """Thread-safe running counters behind :meth:`EstimationService.stats`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.num_queries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.fallback_queries = 0
        self.coalesced_batches = 0
        self.model_swaps = 0
        self.featurization_seconds = 0.0
        self.inference_seconds = 0.0
        self.fallback_seconds = 0.0
        self.bitmap_cache_hits = 0
        self.batch_size_histogram: dict[int, int] = {}
        self.shed_queries = 0
        self.degraded_queries = 0
        self.expired_queries = 0
        self.inference_failures = 0
        self.batcher_restarts = 0

    def record_lookups(self, hits: int, misses: int) -> None:
        with self._lock:
            self.num_queries += hits + misses
            self.cache_hits += hits
            self.cache_misses += misses

    def record_batch(
        self,
        batch_size: int,
        featurization_seconds: float,
        inference_seconds: float,
        bitmap_cache_hits: int,
    ) -> None:
        with self._lock:
            self.coalesced_batches += 1
            self.batch_size_histogram[batch_size] = (
                self.batch_size_histogram.get(batch_size, 0) + 1
            )
            self.featurization_seconds += featurization_seconds
            self.inference_seconds += inference_seconds
            self.bitmap_cache_hits += bitmap_cache_hits

    def record_fallback(self, num_queries: int, seconds: float) -> None:
        with self._lock:
            self.fallback_queries += num_queries
            self.fallback_seconds += seconds

    def record_swap(self) -> None:
        with self._lock:
            self.model_swaps += 1

    def record_shed(self, num_queries: int) -> None:
        with self._lock:
            self.shed_queries += num_queries

    def record_degraded(self, num_queries: int, seconds: float) -> None:
        with self._lock:
            self.degraded_queries += num_queries
            self.fallback_seconds += seconds

    def record_expired(self, num_queries: int) -> None:
        with self._lock:
            self.expired_queries += num_queries

    def record_inference_failure(self) -> None:
        with self._lock:
            self.inference_failures += 1

    def record_batcher_restart(self) -> None:
        with self._lock:
            self.batcher_restarts += 1

    def snapshot(
        self,
        cache_evictions: int = 0,
        breaker_state: str = BreakerState.CLOSED,
        breaker_opens: int = 0,
    ) -> ServiceStats:
        with self._lock:
            return ServiceStats(
                num_queries=self.num_queries,
                featurization_seconds=self.featurization_seconds,
                inference_seconds=self.inference_seconds,
                bitmap_cache_hits=self.bitmap_cache_hits,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_evictions=cache_evictions,
                fallback_queries=self.fallback_queries,
                fallback_seconds=self.fallback_seconds,
                coalesced_batches=self.coalesced_batches,
                model_swaps=self.model_swaps,
                batch_size_histogram=dict(self.batch_size_histogram),
                shed_queries=self.shed_queries,
                degraded_queries=self.degraded_queries,
                expired_queries=self.expired_queries,
                inference_failures=self.inference_failures,
                breaker_state=breaker_state,
                breaker_opens=breaker_opens,
                batcher_restarts=self.batcher_restarts,
            )
