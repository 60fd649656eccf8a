"""A circuit breaker over the model inference path.

The classic three-state machine, tuned for the estimation service, whose
batches never overlap (one caller leads a batch at a time):

* **closed** — traffic flows to the model; consecutive failures are counted
  and ``failure_threshold`` of them in a row open the breaker,
* **open** — the model is not called at all; batches degrade straight to the
  fallback estimator (or fail typed) until ``reset_timeout_seconds`` have
  elapsed since opening,
* **half-open** — after the reset timeout, one batch at a time is allowed
  through as a probe; one success closes the breaker (and zeroes the failure
  count), one failure re-opens it and restarts the timer.

The clock is injectable so state transitions are unit-testable without real
waiting, and every method is thread-safe (stats snapshots read the breaker
from arbitrary threads while batch leaders drive it).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState:
    """String constants for the three breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Consecutive-failure circuit breaker with half-open recovery probes."""

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        # NaN passes every ordered comparison below: a NaN threshold would
        # never open the breaker, a NaN timeout never half-open it.
        for name, value in (
            ("failure_threshold", failure_threshold),
            ("reset_timeout_seconds", reset_timeout_seconds),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_seconds < 0:
            raise ValueError("reset_timeout_seconds must be non-negative")
        self.failure_threshold = failure_threshold
        self.reset_timeout_seconds = reset_timeout_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._opens = 0

    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state, advancing ``open`` to ``half_open`` when due."""
        with self._lock:
            self._advance_locked()
            return self._state

    @property
    def opens(self) -> int:
        """How many times the breaker has transitioned to open."""
        with self._lock:
            return self._opens

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the caller may attempt model inference right now.

        In half-open state a ``True`` reserves the one probe slot; the caller
        *must* follow up with :meth:`record_success` or
        :meth:`record_failure` to release it.
        """
        with self._lock:
            self._advance_locked()
            if self._state == BreakerState.CLOSED:
                return True
            if self._state == BreakerState.OPEN:
                return False
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        """An inference attempt succeeded: close the breaker, reset counters."""
        with self._lock:
            self._state = BreakerState.CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        """An inference attempt failed: count it, possibly (re-)open."""
        with self._lock:
            self._advance_locked()
            self._consecutive_failures += 1
            if self._state == BreakerState.HALF_OPEN:
                self._open_locked()  # a failed probe re-opens immediately
            elif (
                self._state == BreakerState.CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open_locked()

    # ------------------------------------------------------------------
    def _advance_locked(self) -> None:
        if (
            self._state == BreakerState.OPEN
            and self._clock() - self._opened_at >= self.reset_timeout_seconds
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_in_flight = False

    def _open_locked(self) -> None:
        self._state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False
        self._opens += 1
