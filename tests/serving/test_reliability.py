"""Tests of the serving reliability layer.

Admission control, deadline propagation, circuit-breaker degradation, the
batcher watchdog, fail-fast close semantics — and the seeded chaos test the
issue's acceptance criteria ask for: under concurrent injected faults every
request resolves to a correct estimate, a degraded estimate or a typed
error (zero hung futures, zero silent wrong answers), and after the faults
stop the serving output is bit-identical to the pre-fault path.

All synchronization is event/condition-based (``wait_until``, barriers,
gates) — no fixed sleeps gating correctness.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.serving import (
    BreakerState,
    DeadlineExceededError,
    EstimationService,
    ModelRegistry,
    ModelUnavailableError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    SnapshotCorruptionError,
)
from repro.utils.faults import FaultPlan, FaultSpec


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class GatedModel:
    """Delegates to a real model, but blocks featurization on a gate.

    Lets a test deterministically wedge the (single) batcher thread inside a
    micro-batch while it arranges queue contents, then release it.
    """

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.dataset_calls = 0

    def serving_dataset(self, queries):
        self.dataset_calls += 1
        self.entered.set()
        assert self.gate.wait(timeout=30.0), "test gate never opened"
        return self.inner.serving_dataset(queries)

    def estimate_featurized(self, dataset):
        return self.inner.estimate_featurized(dataset)


class FlakyModel:
    """Delegates to a real model, failing the next N inference calls."""

    def __init__(self, inner, failures_remaining: int = 0):
        self.inner = inner
        self.failures_remaining = failures_remaining
        self.inference_calls = 0

    def serving_dataset(self, queries):
        return self.inner.serving_dataset(queries)

    def estimate_featurized(self, dataset):
        self.inference_calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise RuntimeError("synthetic inference failure")
        return self.inner.estimate_featurized(dataset)


class TestAdmissionControl:
    def test_reject_policy_sheds_with_typed_error(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        gated = GatedModel(reliability_estimator)
        config = ServiceConfig(max_queue_depth=2, batch_window_seconds=0.0)
        service = EstimationService(gated, config=config)
        try:
            results: dict[str, object] = {}

            def first_caller():
                results["first"] = service.estimate(reliability_queries[0])

            def bulk_caller():
                results["bulk"] = service.estimate_many(reliability_queries[1:3])

            blocker = threading.Thread(target=first_caller)
            blocker.start()
            wait_until(gated.entered.is_set, message="batcher never started computing")
            filler = threading.Thread(target=bulk_caller)
            filler.start()
            wait_until(
                lambda: service.health()["queue_depth"] == 2,
                message="bulk request never queued",
            )

            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.estimate(reliability_queries[3])
            assert excinfo.value.queued_queries == 2
            assert excinfo.value.max_queue_depth == 2
            assert service.stats().shed_queries == 1
            assert not service.health()["ready"]  # no admission headroom

            gated.gate.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            assert not blocker.is_alive() and not filler.is_alive()
            assert results["first"] == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]
            np.testing.assert_allclose(
                results["bulk"],
                reliability_estimator.estimate_many(reliability_queries[1:3]),
                rtol=1e-4,
            )
        finally:
            gated.gate.set()
            service.close()

    def test_degrade_policy_answers_from_fallback_and_never_caches(
        self, reliability_estimator, reliability_queries, sampling_fallback, wait_until
    ):
        gated = GatedModel(reliability_estimator)
        config = ServiceConfig(
            max_queue_depth=1, batch_window_seconds=0.0, overload_policy="degrade"
        )
        service = EstimationService(gated, fallback=sampling_fallback, config=config)
        try:
            overflow = reliability_queries[2]

            def first_caller():
                service.estimate(reliability_queries[0])

            blocker = threading.Thread(target=first_caller)
            blocker.start()
            wait_until(gated.entered.is_set, message="batcher never started computing")
            filler = threading.Thread(
                target=lambda: service.estimate(reliability_queries[1])
            )
            filler.start()
            wait_until(lambda: service.health()["queue_depth"] == 1)

            value = service.estimate(overflow)  # inline fallback, not queued
            assert value == float(sampling_fallback.estimate_many([overflow])[0])
            assert service.stats().degraded_queries == 1
            assert service.stats().shed_queries == 0
            assert overflow.signature() not in service.cache  # never cached

            gated.gate.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            # Once there is headroom again the same query takes the model path.
            recomputed = service.estimate(overflow)
            assert recomputed == float(
                reliability_estimator.estimate_many([overflow])[0]
            )
        finally:
            gated.gate.set()
            service.close()

    def test_degrade_policy_without_fallback_sheds(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        gated = GatedModel(reliability_estimator)
        config = ServiceConfig(
            max_queue_depth=1, batch_window_seconds=0.0, overload_policy="degrade"
        )
        service = EstimationService(gated, config=config)  # no fallback
        try:
            blocker = threading.Thread(
                target=lambda: service.estimate(reliability_queries[0])
            )
            blocker.start()
            wait_until(gated.entered.is_set)
            filler = threading.Thread(
                target=lambda: service.estimate(reliability_queries[1])
            )
            filler.start()
            wait_until(lambda: service.health()["queue_depth"] == 1)
            with pytest.raises(ServiceOverloadedError):
                service.estimate(reliability_queries[2])
        finally:
            gated.gate.set()
            blocker.join(timeout=30)
            filler.join(timeout=30)
            service.close()

    def test_invalid_overload_policy_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(overload_policy="panic")


class TestDeadlines:
    def test_expired_requests_are_dropped_at_dequeue_not_computed(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        """The stale-work fix: a request that expires while queued gets the
        typed timeout error and its queries are never featurized/inferred."""
        clock = FakeClock()
        gated = GatedModel(reliability_estimator)
        service = EstimationService(
            gated, config=ServiceConfig(batch_window_seconds=0.0), clock=clock
        )
        try:
            results: dict[str, object] = {}

            def blocker_caller():
                results["blocker"] = service.estimate(reliability_queries[0])

            def doomed_caller():
                try:
                    service.estimate(reliability_queries[1], timeout_seconds=5.0)
                    results["doomed"] = "resolved"
                except DeadlineExceededError:
                    results["doomed"] = "deadline"

            blocker = threading.Thread(target=blocker_caller)
            blocker.start()
            wait_until(gated.entered.is_set, message="batcher never started computing")
            doomed = threading.Thread(target=doomed_caller)
            doomed.start()
            wait_until(lambda: service.health()["queue_depth"] == 1)

            clock.advance(6.0)  # past the queued request's 5 s deadline
            gated.gate.set()
            blocker.join(timeout=30)
            doomed.join(timeout=30)
            assert not blocker.is_alive() and not doomed.is_alive()

            assert results["doomed"] == "deadline"
            assert results["blocker"] == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]
            # Only the blocker's batch ever reached featurization.
            wait_until(lambda: service.stats().expired_queries == 1)
            assert gated.dataset_calls == 1
        finally:
            gated.gate.set()
            service.close()

    def test_caller_times_out_typed_when_batcher_is_wedged(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        gated = GatedModel(reliability_estimator)
        config = ServiceConfig(batch_window_seconds=0.0, deadline_grace_seconds=0.05)
        service = EstimationService(gated, config=config)
        try:
            blocker = threading.Thread(
                target=lambda: service.estimate(reliability_queries[0])
            )
            blocker.start()
            wait_until(gated.entered.is_set)
            start = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                service.estimate(reliability_queries[1], timeout_seconds=0.05)
            assert time.monotonic() - start < 5.0  # typed error, not a long hang
        finally:
            gated.gate.set()
            blocker.join(timeout=30)
            service.close()

    def test_timeout_none_disables_the_deadline(
        self, reliability_estimator, reliability_queries
    ):
        with EstimationService(reliability_estimator) as service:
            value = service.estimate(reliability_queries[0], timeout_seconds=None)
        assert value == reliability_estimator.estimate_many(reliability_queries[:1])[0]


class TestCircuitBreaker:
    def test_failures_degrade_then_open_then_recover_uncorrupted(
        self, reliability_estimator, reliability_queries, sampling_fallback
    ):
        clock = FakeClock()
        flaky = FlakyModel(reliability_estimator, failures_remaining=2)
        config = ServiceConfig(
            batch_window_seconds=0.0,
            breaker_failure_threshold=2,
            breaker_reset_timeout_seconds=10.0,
        )
        q = reliability_queries
        with EstimationService(
            flaky, fallback=sampling_fallback, config=config, clock=clock
        ) as service:
            # Two failing batches: each degrades to the fallback, the second
            # opens the breaker.
            assert service.estimate(q[0]) == float(
                sampling_fallback.estimate_many([q[0]])[0]
            )
            assert service.breaker.state == BreakerState.CLOSED
            assert service.estimate(q[1]) == float(
                sampling_fallback.estimate_many([q[1]])[0]
            )
            assert service.breaker.state == BreakerState.OPEN
            assert not service.health()["healthy"]

            # Open: the model is not called at all, traffic degrades.
            calls_before = flaky.inference_calls
            assert service.estimate(q[2]) == float(
                sampling_fallback.estimate_many([q[2]])[0]
            )
            assert flaky.inference_calls == calls_before

            # Model heals; after the reset timeout a half-open probe succeeds
            # and closes the breaker.
            clock.advance(10.0)
            probe = service.estimate(q[3])
            assert probe == float(reliability_estimator.estimate_many([q[3]])[0])
            assert service.breaker.state == BreakerState.CLOSED
            assert service.health()["healthy"]

            # Degraded answers were never cached: the same queries now take
            # the model path and return the model's values.
            for index in range(3):
                assert q[index].signature() not in service.cache
                assert service.estimate(q[index]) == float(
                    reliability_estimator.estimate_many([q[index]])[0]
                )

            stats = service.stats()
            assert stats.inference_failures == 2
            assert stats.degraded_queries == 3
            assert stats.breaker_opens == 1
            assert stats.breaker_state == BreakerState.CLOSED
            assert "breaker" in stats.describe()

    def test_failure_without_fallback_raises_typed_error(
        self, reliability_estimator, reliability_queries
    ):
        clock = FakeClock()
        flaky = FlakyModel(reliability_estimator, failures_remaining=10)
        config = ServiceConfig(batch_window_seconds=0.0, breaker_failure_threshold=1)
        with EstimationService(flaky, config=config, clock=clock) as service:
            with pytest.raises(ModelUnavailableError):
                service.estimate(reliability_queries[0])
            assert service.breaker.state == BreakerState.OPEN
            calls_before = flaky.inference_calls
            with pytest.raises(ModelUnavailableError):
                service.estimate(reliability_queries[1])  # open: model untouched
            assert flaky.inference_calls == calls_before

    def test_swap_model_closes_the_breaker(
        self, reliability_estimator, reliability_queries
    ):
        clock = FakeClock()
        flaky = FlakyModel(reliability_estimator, failures_remaining=10)
        config = ServiceConfig(batch_window_seconds=0.0, breaker_failure_threshold=1)
        with EstimationService(flaky, config=config, clock=clock) as service:
            with pytest.raises(ModelUnavailableError):
                service.estimate(reliability_queries[0])
            assert service.breaker.state == BreakerState.OPEN
            service.swap_model(reliability_estimator)
            assert service.breaker.state == BreakerState.CLOSED
            value = service.estimate(reliability_queries[0])
            assert value == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]


class TestBatcherWatchdog:
    def test_dead_batcher_is_restarted_without_losing_requests(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        plan = FaultPlan([FaultSpec("batcher.loop", max_triggers=1)])
        with EstimationService(
            reliability_estimator, config=ServiceConfig(batch_window_seconds=0.0)
        ) as service:
            with plan.activate():
                # The first batcher thread dies at its first loop iteration;
                # the watchdog restarts it and the request still resolves.
                value = service.estimate(reliability_queries[0])
            assert value == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]
            wait_until(lambda: service.stats().batcher_restarts == 1)
            health = service.health()
            assert health["batcher_alive"]
            assert "InjectedFault" in health["last_batcher_crash"]  # original traceback

    def test_admission_path_replaces_a_dead_thread(
        self, reliability_estimator, reliability_queries
    ):
        with EstimationService(
            reliability_estimator, config=ServiceConfig(batch_window_seconds=0.0)
        ) as service:
            service.estimate(reliability_queries[0])
            worker = service._worker
            assert worker is not None and worker.is_alive()
            plan = FaultPlan([FaultSpec("batcher.loop", max_triggers=3)])
            with plan.activate():
                # Repeated crashes are survivable too: each estimate finds or
                # rebuilds a live batcher.
                for index in range(1, 4):
                    value = service.estimate(reliability_queries[index])
                    assert value == reliability_estimator.estimate_many(
                        [reliability_queries[index]]
                    )[0]
            assert service.stats().batcher_restarts >= 1


class TestCloseSemantics:
    def test_queued_requests_fail_fast_and_inflight_completes(
        self, reliability_estimator, reliability_queries, wait_until
    ):
        gated = GatedModel(reliability_estimator)
        service = EstimationService(gated, config=ServiceConfig(batch_window_seconds=0.0))
        results: dict[str, object] = {}

        def inflight_caller():
            results["inflight"] = service.estimate(reliability_queries[0])

        def queued_caller():
            start = time.monotonic()
            try:
                service.estimate(reliability_queries[1])
                results["queued"] = "resolved"
            except ServiceClosedError:
                results["queued"] = ("closed", time.monotonic() - start)

        inflight = threading.Thread(target=inflight_caller)
        inflight.start()
        wait_until(gated.entered.is_set, message="batcher never started computing")
        queued = threading.Thread(target=queued_caller)
        queued.start()
        wait_until(lambda: service.health()["queue_depth"] == 1)

        closer = threading.Thread(target=service.close)
        closer.start()
        wait_until(lambda: service.health()["closed"])
        gated.gate.set()  # let the in-flight batch finish
        for thread in (inflight, queued, closer):
            thread.join(timeout=30)
            assert not thread.is_alive()

        # The in-flight batch delivered its result; the queued request got
        # the typed error promptly instead of waiting out a 60 s timeout.
        assert results["inflight"] == reliability_estimator.estimate_many(
            reliability_queries[:1]
        )[0]
        outcome, elapsed = results["queued"]
        assert outcome == "closed"
        assert elapsed < 30.0

    def test_repeated_close_is_idempotent(self, reliability_estimator):
        service = EstimationService(reliability_estimator)
        service.close()
        service.close()
        service.close()

    def test_estimate_after_close_raises_immediately_even_concurrently(
        self, reliability_estimator, reliability_queries
    ):
        service = EstimationService(reliability_estimator)
        service.estimate(reliability_queries[0])
        service.close()
        errors: list[BaseException] = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def caller(index: int) -> None:
            barrier.wait()
            try:
                service.estimate(reliability_queries[index])
            except BaseException as error:  # noqa: BLE001 — asserted below
                with lock:
                    errors.append(error)

        start = time.monotonic()
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert time.monotonic() - start < 10.0
        assert len(errors) == 8
        assert all(isinstance(error, ServiceClosedError) for error in errors)


class TestChaos:
    def test_every_request_resolves_and_recovery_is_bit_identical(
        self,
        tmp_path,
        tiny_database,
        reliability_estimator,
        reliability_queries,
        sampling_fallback,
    ):
        """The issue's acceptance scenario: concurrent traffic under a seeded
        fault plan (engine exceptions, latency spikes, registry corruption)
        — every request resolves to the correct estimate, a degraded
        estimate, or a typed error; afterwards the breaker closes within a
        bounded number of probes and a cold pass over the workload is
        bit-identical to an identical service that never saw a fault."""
        queries = reliability_queries
        baseline = reliability_estimator.estimate_many(queries)
        fallback_values = np.asarray(
            sampling_fallback.estimate_many(queries), dtype=np.float64
        )
        config = ServiceConfig(
            batch_window_seconds=0.001,
            max_queue_depth=64,
            breaker_failure_threshold=2,
            breaker_reset_timeout_seconds=0.02,
            request_timeout_seconds=30.0,
        )
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", reliability_estimator)
        plan = FaultPlan(
            [
                FaultSpec("engine.run", kind="error", probability=0.4, max_triggers=6),
                FaultSpec(
                    "engine.run",
                    kind="latency",
                    probability=0.25,
                    latency_seconds=0.002,
                    max_triggers=8,
                ),
                FaultSpec("registry.load", kind="corrupt", max_triggers=1),
            ],
            seed=2024,
        )
        typed = (DeadlineExceededError, ServiceOverloadedError)
        num_workers = 6
        per_worker = len(queries) // num_workers
        outcomes: dict[int, tuple] = {}
        lock = threading.Lock()
        barrier = threading.Barrier(num_workers)
        service = EstimationService(
            reliability_estimator, fallback=sampling_fallback, config=config
        )

        def worker(slot: int) -> None:
            barrier.wait()
            for index in range(slot * per_worker, (slot + 1) * per_worker):
                try:
                    outcome = ("value", service.estimate(queries[index]))
                except typed as error:
                    outcome = ("typed", type(error).__name__)
                with lock:
                    outcomes[index] = outcome

        try:
            with plan.activate():
                threads = [
                    threading.Thread(target=worker, args=(slot,))
                    for slot in range(num_workers)
                ]
                for thread in threads:
                    thread.start()
                # Mid-chaos, a hot-swap from a corrupted snapshot fails with
                # the typed corruption error and live serving is unaffected.
                with pytest.raises(SnapshotCorruptionError):
                    service.swap_from_registry(registry, "mscn")
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads), (
                    "hung request threads"
                )

            # Zero hung futures, zero silent wrong answers.
            assert len(outcomes) == num_workers * per_worker
            for index, (kind, payload) in sorted(outcomes.items()):
                if kind == "value":
                    # Micro-batch composition shifts float32 rounding by at
                    # most ~1e-7 relative; 1e-4 cleanly separates "model
                    # answer" / "fallback answer" from silent garbage.
                    is_model = np.isclose(payload, baseline[index], rtol=1e-4)
                    is_fallback = np.isclose(payload, fallback_values[index], rtol=1e-9)
                    assert is_model or is_fallback, (
                        f"query {index}: {payload} is neither the model's "
                        f"({baseline[index]}) nor the fallback's "
                        f"({fallback_values[index]}) answer"
                    )
            assert plan.triggered("engine.run") >= 1, "the chaos never happened"

            # Faults have stopped: the breaker must close within a bounded
            # number of recovery probes.
            for attempt in range(25):
                if service.breaker.state == BreakerState.CLOSED:
                    break
                try:
                    service.estimate(queries[attempt % len(queries)])
                except typed:
                    pass
                time.sleep(0.005)  # let the (tiny) reset timeout elapse
            assert service.breaker.state == BreakerState.CLOSED

            # Bit-identical recovery: a cold single-batch pass equals the
            # same pass on a pristine service that never saw a fault.
            service.cache.clear()
            recovered = service.estimate_many(queries)
            with EstimationService(
                reliability_estimator, fallback=sampling_fallback, config=config
            ) as pristine:
                pre_fault = pristine.estimate_many(queries)
            np.testing.assert_array_equal(recovered, pre_fault)
            np.testing.assert_array_equal(recovered, baseline)
        finally:
            service.close()
