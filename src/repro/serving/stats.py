"""Service-level observability: an extended :class:`PredictionTiming`.

:class:`ServiceStats` is an immutable snapshot of everything an operator
needs to judge a running :class:`~repro.serving.service.EstimationService`:
the per-stage latency breakdown inherited from
:class:`~repro.core.estimator.PredictionTiming`, plus cache effectiveness,
fallback routing volume, the micro-batch size histogram (how well concurrent
callers coalesce) and the reliability-layer counters — shed / degraded /
expired request volume, circuit-breaker state and open count.
:class:`StatsAccumulator` is its mutable, lock-protected counterpart the
service updates on the hot path.  There are no memory gauges: neither
featurization nor inference keeps buffers between micro-batches.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field, fields

from repro.core.estimator import PredictionTiming
from repro.serving.breaker import BreakerState

__all__ = ["ServiceStats", "StatsAccumulator"]


@dataclass(frozen=True)
class ServiceStats(PredictionTiming):
    """A point-in-time snapshot of service counters and latencies.

    ``num_queries`` counts every query answered (cached or computed);
    ``featurization_seconds``/``inference_seconds`` cover only the queries
    that reached the model, and ``fallback_seconds`` the ones answered by the
    traditional estimator (routed or degraded).  ``batch_size_histogram``
    maps the size of each model micro-batch to how often it occurred; it
    and ``coalesced_batches`` count model-bound queries only, so a batch
    whose queries were all routed to the fallback adds nothing to either.

    The reliability counters partition failure handling: ``shed_queries``
    were rejected by admission control (typed
    :class:`~repro.serving.errors.ServiceOverloadedError`), ``degraded_queries``
    were answered by the fallback estimator because the model path was
    unavailable (overload-degrade policy, open circuit breaker, or an
    inference failure) — distinct from ``fallback_queries``, which counts
    deliberate join-count routing (``max_joins``), answered before any model
    work whatever the breaker's state — and ``expired_queries``
    missed their deadline and were answered with a typed timeout error
    instead of being featurized as dead work.
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
            or self.breaker_state != BreakerState.CLOSED
        ):
            summary += (
                f"; reliability: breaker {self.breaker_state} "
                f"({self.breaker_opens} opens), {self.shed_queries} shed, "
                f"{self.degraded_queries} degraded, {self.expired_queries} expired, "
                f"{self.inference_failures} inference failures"
            )
        return summary


#: What a model batch's :class:`PredictionTiming` adds to the running totals
#: (its ``num_queries`` is the batch size, not answered queries).
_TIMING_TOTALS = tuple(f.name for f in fields(PredictionTiming) if f.name != "num_queries")


class StatsAccumulator:
    """Thread-safe running totals behind :meth:`EstimationService.stats`.

    The totals are keyed by :class:`ServiceStats` field name, so the counters
    are declared once, on the snapshot class; :meth:`snapshot` adds the
    gauges the service reads from its cache and breaker.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = asdict(
            ServiceStats(num_queries=0, featurization_seconds=0.0, inference_seconds=0.0)
        )

    def add(self, **amounts) -> None:
        """Add to the named totals (a misspelt name raises ``KeyError``)."""
        with self._lock:
            for name, amount in amounts.items():
                self._totals[name] += amount

    def record_lookups(self, hits: int, misses: int) -> None:
        """Count one request's cache lookups.

        The cache-hit path's only stats call, kept apart from :meth:`add`:
        building and looping over a keyword dict cost that path ~10%.
        """
        with self._lock:
            totals = self._totals
            totals["num_queries"] += hits + misses
            totals["cache_hits"] += hits
            totals["cache_misses"] += misses

    def record_batch(self, timing: PredictionTiming) -> None:
        """Count one model micro-batch of ``timing.num_queries`` queries."""
        with self._lock:
            totals = self._totals
            totals["coalesced_batches"] += 1
            histogram = totals["batch_size_histogram"]
            histogram[timing.num_queries] = histogram.get(timing.num_queries, 0) + 1
            for name in _TIMING_TOTALS:
                totals[name] += getattr(timing, name)

    def snapshot(self, **gauges) -> ServiceStats:
        with self._lock:
            totals = dict(self._totals)
            totals["batch_size_histogram"] = dict(totals["batch_size_histogram"])
        return ServiceStats(**{**totals, **gauges})
