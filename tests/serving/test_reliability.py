"""Tests of the serving reliability layer.

Admission control, deadline propagation, circuit-breaker degradation, failed
batches that never wedge the service, fail-fast close semantics — and the
swept chaos oracle: under concurrent injected faults every request resolves
to a correct estimate, a degraded estimate or a typed error (zero hung
callers, zero silent wrong answers), and after the faults stop the serving
output is bit-identical to the pre-fault path.

All synchronization is event/condition-based (``wait_until``, barriers,
gates) — no fixed sleeps gating correctness.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.estimators.base import CardinalityEstimator
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


class FlakyModel:
    """Delegates to a real model, failing the next N inference calls."""

    def __init__(self, inner, failures_remaining: int = 0):
        self.inner = inner
        self.failures_remaining = failures_remaining
        self.inference_calls = 0

    def timed_estimate_many(self, queries):
        self.inference_calls += 1
        if self.failures_remaining > 0:
            self.failures_remaining -= 1
            raise RuntimeError("synthetic inference failure")
        return self.inner.timed_estimate_many(queries)


class TestAdmissionControl:
    def test_reject_policy_sheds_with_typed_error(
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        gated = gated_model(reliability_estimator)
        config = ServiceConfig(max_queue_depth=2)
        service = EstimationService(gated, config=config)
        try:
            results: dict[str, object] = {}

            def first_caller():
                results["first"] = service.estimate(reliability_queries[0])

            def bulk_caller():
                results["bulk"] = service.estimate_many(reliability_queries[1:3])

            blocker = threading.Thread(target=first_caller)
            blocker.start()
            wait_until(gated.entered.is_set, message="leader never started computing")
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
        self,
        reliability_estimator,
        gated_model,
        reliability_queries,
        sampling_fallback,
        wait_until,
    ):
        gated = gated_model(reliability_estimator)
        config = ServiceConfig(max_queue_depth=1, overload_policy="degrade")
        service = EstimationService(gated, fallback=sampling_fallback, config=config)
        try:
            overflow = reliability_queries[2]

            def first_caller():
                service.estimate(reliability_queries[0])

            blocker = threading.Thread(target=first_caller)
            blocker.start()
            wait_until(gated.entered.is_set, message="leader never started computing")
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
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        gated = gated_model(reliability_estimator)
        config = ServiceConfig(max_queue_depth=1, overload_policy="degrade")
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
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        """The stale-work fix: a request that expires while queued gets the
        typed timeout error and its queries are never featurized/inferred."""
        clock = FakeClock()
        gated = gated_model(reliability_estimator)
        service = EstimationService(gated, clock=clock)
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
            wait_until(gated.entered.is_set, message="leader never started computing")
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
            assert len(gated.batches) == 1
        finally:
            gated.gate.set()
            service.close()

    def test_queued_caller_times_out_typed_when_leader_is_wedged(
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        gated = gated_model(reliability_estimator)
        config = ServiceConfig(deadline_grace_seconds=0.05)
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
            # The abandoned request left the queue at once (counted expired)
            # instead of waiting there for a later leader.
            assert service.health()["queue_depth"] == 0
            assert service.stats().expired_queries == 1
            gated.gate.set()
            blocker.join(timeout=30)
            assert len(gated.batches) == 1
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

    @pytest.mark.parametrize(
        "field",
        [
            "request_timeout_seconds",
            "deadline_grace_seconds",
            "breaker_reset_timeout_seconds",
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_rejects_non_finite_settings(self, field, value):
        """NaN slips past every ordered check and an infinite wait overflows
        ``Condition.wait``."""
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_call_timeout_rejected_before_queueing(
        self, reliability_estimator, reliability_queries, value
    ):
        with EstimationService(reliability_estimator) as service:
            with pytest.raises(ValueError, match="timeout_seconds"):
                service.estimate(reliability_queries[0], timeout_seconds=value)
            assert service.health()["queue_depth"] == 0
            assert service.stats().cache_misses == 0
            # The service is unharmed: the next call answers normally.
            assert service.estimate(reliability_queries[0]) == (
                reliability_estimator.estimate_many(reliability_queries[:1])[0]
            )

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_follower_with_non_finite_timeout_gets_a_typed_error(
        self, reliability_estimator, gated_model, reliability_queries, wait_until, value
    ):
        """A caller queued behind a running batch used to wait with an
        infinite timeout and fail with an untyped ``OverflowError``, leaving
        its request in the queue; it now gets ``ValueError`` before queueing
        and the leader's batch is unaffected."""
        gated = gated_model(reliability_estimator)
        service = EstimationService(gated)
        results: dict[str, float] = {}
        leader = threading.Thread(
            target=lambda: results.setdefault(
                "leader", service.estimate(reliability_queries[0])
            )
        )
        try:
            leader.start()
            wait_until(gated.entered.is_set, message="leader never started computing")
            with pytest.raises(ValueError, match="timeout_seconds"):
                service.estimate(reliability_queries[1], timeout_seconds=value)
            assert service.health()["queue_depth"] == 0
            gated.gate.set()
            leader.join(timeout=30)
            assert not leader.is_alive()
            assert results["leader"] == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]
            assert len(gated.batches) == 1
        finally:
            gated.gate.set()
            leader.join(timeout=30)
            service.close()


class TestCircuitBreaker:
    def test_failures_degrade_then_open_then_recover_uncorrupted(
        self, reliability_estimator, reliability_queries, sampling_fallback
    ):
        clock = FakeClock()
        flaky = FlakyModel(reliability_estimator, failures_remaining=2)
        config = ServiceConfig(
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
        config = ServiceConfig(breaker_failure_threshold=1)
        with EstimationService(flaky, config=config, clock=clock) as service:
            with pytest.raises(ModelUnavailableError):
                service.estimate(reliability_queries[0])
            assert service.breaker.state == BreakerState.OPEN
            calls_before = flaky.inference_calls
            with pytest.raises(ModelUnavailableError):
                service.estimate(reliability_queries[1])  # open: model untouched
            assert flaky.inference_calls == calls_before

    def test_a_failing_fallback_never_opens_the_breaker(
        self, reliability_estimator, reliability_queries
    ):
        """Join-count routing runs before the breaker is asked: a fallback
        that raises fails only its own batch's requests, and the model keeps
        answering the queries it owns."""

        class BrokenFallback(CardinalityEstimator):
            def estimate(self, query):
                raise RuntimeError("fallback is down")

        joined = [q for q in reliability_queries if q.num_joins == 1][:3]
        base = next(q for q in reliability_queries if q.num_joins == 0)
        assert len(joined) == 3
        config = ServiceConfig(max_joins=0, breaker_failure_threshold=2)
        with EstimationService(
            reliability_estimator, fallback=BrokenFallback(), config=config, clock=FakeClock()
        ) as service:
            for query in joined:
                with pytest.raises(RuntimeError, match="fallback is down"):
                    service.estimate(query)
            assert service.breaker.state == BreakerState.CLOSED
            stats = service.stats()
            assert stats.inference_failures == 0
            assert stats.degraded_queries == 0
            assert service.estimate(base) == reliability_estimator.estimate_many([base])[0]

    def test_open_breaker_degrades_only_model_bound_queries(
        self, reliability_estimator, reliability_queries, sampling_fallback
    ):
        """With the breaker open, a mixed batch's routed queries still get
        the fallback's cached answer (``fallback_queries``); only its
        model-bound queries degrade (``degraded_queries``, never cached)."""
        flaky = FlakyModel(reliability_estimator, failures_remaining=10)
        config = ServiceConfig(max_joins=1, breaker_failure_threshold=1)
        opener = next(q for q in reliability_queries if q.num_joins <= 1)
        mixed = [q for q in reliability_queries if q.signature() != opener.signature()][:30]
        routed = [q for q in mixed if q.num_joins > 1]
        model_bound = [q for q in mixed if q.num_joins <= 1]
        assert routed and model_bound
        assert len({q.signature() for q in mixed}) == len(mixed)
        with EstimationService(
            flaky, fallback=sampling_fallback, config=config, clock=FakeClock()
        ) as service:
            service.estimate(opener)  # the one inference failure opens the breaker
            assert service.breaker.state == BreakerState.OPEN
            calls_before = flaky.inference_calls
            before = service.stats()

            served = service.estimate_many(mixed)
            stats = service.stats()
            assert flaky.inference_calls == calls_before
            np.testing.assert_array_equal(served, sampling_fallback.estimate_many(mixed))
            assert stats.fallback_queries - before.fallback_queries == len(routed)
            assert stats.degraded_queries - before.degraded_queries == len(model_bound)
            assert all(q.signature() in service.cache for q in routed)
            assert not any(q.signature() in service.cache for q in model_bound)
            assert stats.coalesced_batches == 0

    def test_swap_model_closes_the_breaker(
        self, reliability_estimator, reliability_queries
    ):
        clock = FakeClock()
        flaky = FlakyModel(reliability_estimator, failures_remaining=10)
        config = ServiceConfig(breaker_failure_threshold=1)
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


class TestFailedBatches:
    def test_a_failed_batch_never_wedges_the_service(
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        """A batch that dies outside the model path's typed failure handling
        (here a ``BaseException`` from the model call) fails only its own
        requests; a caller queued behind it leads the next batch."""

        class Abort(BaseException):
            pass

        class AbortFirstBatch(gated_model):
            def timed_estimate_many(self, queries):
                first = not self.batches
                answer = super().timed_estimate_many(queries)
                if first:
                    raise Abort("the model call died")
                return answer

        model = AbortFirstBatch(reliability_estimator)
        service = EstimationService(model)
        results: dict[str, object] = {}

        def caller(name: str, query) -> None:
            try:
                results[name] = service.estimate(query)
            except Abort:
                results[name] = "aborted"

        try:
            leader = threading.Thread(target=caller, args=("leader", reliability_queries[0]))
            leader.start()
            wait_until(model.entered.is_set, message="leader never started computing")
            queued = threading.Thread(target=caller, args=("queued", reliability_queries[1]))
            queued.start()
            wait_until(lambda: service.health()["queue_depth"] == 1)
            model.gate.set()
            for thread in (leader, queued):
                thread.join(timeout=30)
                assert not thread.is_alive()

            assert results["leader"] == "aborted"
            assert results["queued"] == reliability_estimator.estimate_many(
                reliability_queries[1:2]
            )[0]
            # The failed query was never cached: the next estimate computes it.
            assert reliability_queries[0].signature() not in service.cache
            value = service.estimate(reliability_queries[0])
            assert value == reliability_estimator.estimate_many(reliability_queries[:1])[0]
            assert [len(batch) for batch in model.batches] == [1, 1, 1]
            health = service.health()
            assert health["queue_depth"] == 0
            assert health["healthy"]
        finally:
            model.gate.set()
            service.close()


class TestCloseSemantics:
    def test_queued_requests_fail_fast_and_inflight_completes(
        self, reliability_estimator, gated_model, reliability_queries, wait_until
    ):
        gated = gated_model(reliability_estimator)
        service = EstimationService(gated)
        results: dict[str, object] = {}

        def inflight_caller():
            results["inflight"] = service.estimate(reliability_queries[0])

        def queued_caller():
            try:
                service.estimate(reliability_queries[1])
                results["queued"] = "resolved"
            except ServiceClosedError:
                results["queued"] = "closed"

        try:
            inflight = threading.Thread(target=inflight_caller)
            inflight.start()
            wait_until(gated.entered.is_set, message="leader never started computing")
            queued = threading.Thread(target=queued_caller)
            queued.start()
            wait_until(lambda: service.health()["queue_depth"] == 1)

            # While the in-flight batch is still held at the gate, close()
            # returns and the queued caller gets the typed error: neither
            # waits for the batch (nor out its 60 s timeout).
            closer = threading.Thread(target=service.close)
            closer.start()
            closer.join(timeout=5.0)
            assert not closer.is_alive(), "close() waited for the in-flight batch"
            queued.join(timeout=5.0)
            assert not queued.is_alive(), "the queued caller waited for the batch"
            assert not gated.gate.is_set()
            assert results["queued"] == "closed"

            gated.gate.set()  # now let the in-flight batch finish
            inflight.join(timeout=30)
            assert not inflight.is_alive()
            # The in-flight batch delivered its result.
            assert results["inflight"] == reliability_estimator.estimate_many(
                reliability_queries[:1]
            )[0]
        finally:
            gated.gate.set()
            service.close()

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


#: The swept serving oracle's fault schedules: each seed draws a different
#: interleaving of engine failures and latency spikes.
_CHAOS_SEEDS = (2024, 7, 31337)


@pytest.fixture(scope="module")
def chaos_model(tiny_database, tiny_samples, tiny_workload):
    """One trained model per dtype.

    Every model shares the reliability estimator's training seed.
    """
    models: dict[str, MSCNEstimator] = {}

    def model(dtype) -> MSCNEstimator:
        if dtype not in models:
            config = MSCNConfig(
                hidden_units=24,
                epochs=6,
                batch_size=32,
                num_samples=50,
                seed=13,
                dtype=dtype,
            )
            estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
            estimator.fit(tiny_workload)
            models[dtype] = estimator
        return models[dtype]

    return model


class TestChaos:
    """The swept serving oracle.

    Concurrent traffic under a seeded fault plan (engine exceptions, latency
    spikes, registry corruption) across result cache x dtype x overload
    policy: every request resolves to the model's estimate, the fallback's
    estimate, or a typed error; no thread hangs; afterwards the breaker closes within a bounded number of probes and a
    cold pass over the workload is bit-identical to the direct path and to
    an identical service that never saw a fault.
    """

    @pytest.mark.parametrize("seed", _CHAOS_SEEDS)
    @pytest.mark.parametrize("overload_policy", ["reject", "degrade"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cache_capacity", [1, 4096])
    def test_every_request_resolves_and_recovery_is_bit_identical(
        self,
        tmp_path,
        tiny_database,
        chaos_model,
        reliability_queries,
        sampling_fallback,
        cache_capacity,
        dtype,
        overload_policy,
        seed,
    ):
        model = chaos_model(dtype)
        queries = reliability_queries
        baseline = model.estimate_many(queries)
        fallback_values = np.asarray(
            sampling_fallback.estimate_many(queries), dtype=np.float64
        )
        config = ServiceConfig(
            cache_capacity=cache_capacity,
            # Six single-query callers against a depth of four: admission
            # control sheds or degrades some of them.
            max_queue_depth=4,
            overload_policy=overload_policy,
            breaker_failure_threshold=2,
            # Short enough that the breaker opens and recovers several times
            # while the traffic runs, so the model path answers too.
            breaker_reset_timeout_seconds=0.002,
            request_timeout_seconds=30.0,
        )
        registry = ModelRegistry(tmp_path / "models", tiny_database)
        registry.publish("mscn", model)
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
            seed=seed,
        )
        typed = (DeadlineExceededError, ServiceOverloadedError)
        num_workers = 6
        per_worker = len(queries) // num_workers
        outcomes: dict[int, tuple] = {}
        lock = threading.Lock()
        barrier = threading.Barrier(num_workers)
        service = EstimationService(model, fallback=sampling_fallback, config=config)

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
                    service.swap_model(registry.load("mscn"))
                for thread in threads:
                    thread.join(timeout=60)
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
                elif overload_policy == "degrade":
                    # With a fallback to degrade to, overload never sheds.
                    assert payload != "ServiceOverloadedError"
            assert plan.triggered("engine.run") >= 1, "the chaos never happened"

            # Faults have stopped: the breaker must close within a bounded
            # number of recovery probes (each a cache miss, so it reaches the
            # model path).
            service.cache.clear()
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
                model, fallback=sampling_fallback, config=config
            ) as pristine:
                pre_fault = pristine.estimate_many(queries)
            np.testing.assert_array_equal(recovered, pre_fault)
            np.testing.assert_array_equal(recovered, baseline)
        finally:
            service.close()
