"""Serving-test fixtures: a shared trained model and condition-based waits.

The reliability tests synchronize on events, barriers and predicates — never
on fixed sleeps — so they are fast when things go right and fail with a real
diagnostic (not a flake) when things go wrong.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator


@pytest.fixture(scope="session")
def wait_until():
    """Poll a predicate until truthy; fail the test on timeout.

    Returns the (truthy) predicate value so callers can assert on it.
    """

    def _wait_until(predicate, timeout: float = 10.0, interval: float = 0.002,
                    message: str = ""):
        deadline = time.monotonic() + timeout
        while True:
            value = predicate()
            if value:
                return value
            if time.monotonic() >= deadline:
                raise AssertionError(message or "condition not reached in time")
            time.sleep(interval)

    return _wait_until


class GatedModel:
    """Delegates to a real model, but blocks each model call on a gate.

    Lets a test deterministically hold a batch leader inside a micro-batch
    while it arranges queue contents, then release it.  ``batches`` records
    the queries of every model micro-batch, in batch order.
    """

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batches: list[list] = []

    def timed_estimate_many(self, queries):
        self.batches.append(list(queries))
        self.entered.set()
        assert self.gate.wait(timeout=30.0), "test gate never opened"
        return self.inner.timed_estimate_many(queries)


@pytest.fixture(scope="session")
def gated_model():
    """The :class:`GatedModel` wrapper: ``gated_model(estimator)``."""
    return GatedModel


@pytest.fixture(scope="package")
def reliability_estimator(tiny_database, tiny_samples, tiny_workload):
    """One trained MSCN shared by the reliability/chaos tests (deterministic)."""
    config = MSCNConfig(hidden_units=24, epochs=6, batch_size=32, num_samples=50, seed=13)
    estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
    estimator.fit(tiny_workload)
    return estimator


@pytest.fixture(scope="package")
def reliability_queries(tiny_workload):
    return [labelled.query for labelled in tiny_workload]


@pytest.fixture(scope="package")
def sampling_fallback(tiny_database, tiny_samples):
    return RandomSamplingEstimator(tiny_database, tiny_samples)
