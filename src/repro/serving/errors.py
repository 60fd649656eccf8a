"""Typed errors of the serving reliability layer.

Every failure mode a caller of :class:`~repro.serving.service.
EstimationService` (or of the :class:`~repro.serving.registry.ModelRegistry`
lifecycle) can observe has a distinct exception type here, so callers can
program against *categories* — shed the query, retry later, fall back to a
heuristic estimate — instead of string-matching messages.  All of them are
``RuntimeError`` subclasses; :class:`DeadlineExceededError` is additionally a
``TimeoutError`` so generic timeout handling keeps working.
"""

from __future__ import annotations

__all__ = [
    "DeadlineExceededError",
    "ModelLoadError",
    "ModelPromotionError",
    "ModelUnavailableError",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadedError",
    "SnapshotCorruptionError",
]


class ServiceError(RuntimeError):
    """Base class of every typed serving-layer failure."""


class ServiceClosedError(ServiceError):
    """The service was closed: new requests are rejected and queued requests
    that had not started computing resolve with this error immediately."""


class ServiceOverloadedError(ServiceError):
    """Admission control shed the request: the bounded pending queue is full
    and the overload policy is ``reject`` (or ``degrade`` without a fallback
    estimator to degrade to)."""

    def __init__(self, message: str, queued_queries: int = 0, max_queue_depth: int = 0):
        super().__init__(message)
        self.queued_queries = queued_queries
        self.max_queue_depth = max_queue_depth


class DeadlineExceededError(ServiceError, TimeoutError):
    """The request's deadline expired before an estimate was produced.

    Raised both caller-side (waiting behind another caller's batch outlasted
    the deadline) and by the batch leader (an expired request was removed
    from the queue at dequeue time instead of being featurized and inferred
    as dead work).
    """


class ModelUnavailableError(ServiceError):
    """The model cannot answer (circuit breaker open, or inference failed)
    and no fallback estimator is configured to degrade to."""


class ModelLoadError(ServiceError):
    """Loading a model from the registry failed after exhausting retries."""


class SnapshotCorruptionError(ModelLoadError):
    """A stored model snapshot failed checksum verification.

    Not retryable: version directories are immutable, so a checksum mismatch
    means the bytes on disk are wrong, not that the read raced a writer."""


class ModelPromotionError(ServiceError):
    """A freshly published model failed load or validation; ``CURRENT`` was
    rolled back to the previous version."""
