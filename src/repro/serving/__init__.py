"""Concurrency-safe estimation serving (the deployment layer of Section 5).

The paper argues that a learned estimator is only useful inside a query
optimizer if it is cheap *per call* and knows when not to trust itself.  This
package turns the MSCN estimators of ``repro.core`` into a service:

``repro.serving.service``
    :class:`EstimationService` — a thread-safe front-end that canonicalizes
    queries into a :class:`~repro.utils.lru.LRU` result cache (importable here
    as ``ResultCache``), coalesces concurrent callers into
    micro-batches (run by one waiting caller at a time, on its own thread —
    the service starts no thread), routes each batch's queries with more
    joins than the model was trained on to a traditional fallback estimator
    before any model work, and answers the rest with one
    ``timed_estimate_many`` call on the model.  Bounded admission, per-request
    deadlines and a circuit breaker over inference guarantee every request
    resolves to an estimate or a typed error — never a silent hang.
``repro.serving.registry``
    :class:`ModelRegistry` — named, versioned, checksum-verified model
    persistence with atomically updated "current" pointers, retrying loads
    (:class:`RetryPolicy`) and rolling back failed promotions.
``repro.serving.breaker``
    :class:`CircuitBreaker` — the closed/open/half-open state machine that
    keeps traffic off a failing model path.
``repro.serving.errors``
    The typed exception hierarchy callers program against
    (:class:`ServiceOverloadedError`, :class:`DeadlineExceededError`, ...).
``repro.serving.stats``
    :class:`ServiceStats` — an extended :class:`~repro.core.estimator.
    PredictionTiming` snapshot (cache hit rate, batch-size histogram,
    per-stage latency, fallback rate, reliability counters).
"""

from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.errors import (
    DeadlineExceededError,
    ModelLoadError,
    ModelPromotionError,
    ModelUnavailableError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SnapshotCorruptionError,
)
from repro.serving.registry import ModelRegistry, RetryPolicy
from repro.serving.service import EstimationService, ServiceConfig
from repro.serving.stats import ServiceStats
from repro.utils.lru import LRU as ResultCache

__all__ = [
    "EstimationService",
    "ServiceConfig",
    "ModelRegistry",
    "RetryPolicy",
    "ResultCache",
    "ServiceStats",
    "BreakerState",
    "CircuitBreaker",
    "ServiceError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ModelUnavailableError",
    "ModelLoadError",
    "SnapshotCorruptionError",
    "ModelPromotionError",
]
