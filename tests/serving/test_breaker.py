"""Tests of the inference circuit breaker state machine (fake clock)."""

from __future__ import annotations

import pytest

from repro.serving import BreakerState, CircuitBreaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def make_breaker(clock, threshold=3, reset=10.0):
    return CircuitBreaker(
        failure_threshold=threshold, reset_timeout_seconds=reset, clock=clock
    )


class TestClosedState:
    def test_starts_closed_and_allows(self, clock):
        breaker = make_breaker(clock)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()
        assert breaker.opens == 0

    def test_stays_closed_below_threshold(self, clock):
        breaker = make_breaker(clock, threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow()

    def test_success_resets_the_consecutive_count(self, clock):
        breaker = make_breaker(clock, threshold=3)
        for _ in range(5):  # never three in a row
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_validates_parameters(self, clock):
        with pytest.raises(ValueError):
            make_breaker(clock, threshold=0)
        with pytest.raises(ValueError):
            make_breaker(clock, reset=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_parameters(self, clock, value):
        # A NaN timeout would never half-open an open breaker and a NaN
        # threshold would never open a closed one; both are refused.
        with pytest.raises(ValueError, match="reset_timeout_seconds must be finite"):
            make_breaker(clock, reset=value)
        with pytest.raises(ValueError, match="failure_threshold must be finite"):
            make_breaker(clock, threshold=value)


class TestOpenState:
    def test_opens_at_threshold_and_blocks(self, clock):
        breaker = make_breaker(clock, threshold=3)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_stays_open_until_reset_timeout(self, clock):
        breaker = make_breaker(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(9.99)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow()


class TestHalfOpenState:
    def test_reset_timeout_admits_a_bounded_probe(self, clock):
        breaker = make_breaker(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe in flight

    def test_successful_probe_closes(self, clock):
        breaker = make_breaker(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_timer(self, clock):
        breaker = make_breaker(clock, threshold=1, reset=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BreakerState.OPEN
        assert breaker.opens == 2
        clock.advance(9.0)  # timer restarted at the probe failure
        assert breaker.state == BreakerState.OPEN
        clock.advance(1.0)
        assert breaker.state == BreakerState.HALF_OPEN
