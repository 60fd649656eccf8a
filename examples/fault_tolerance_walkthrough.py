"""Serve estimation traffic while everything around the model misbehaves.

Walks the reliability layer end to end:

1. train an MSCN, publish it to a checksum-verified :class:`ModelRegistry`,
   and serve it through an :class:`EstimationService` with a random-sampling
   fallback,
2. inject seeded inference faults (:class:`FaultPlan`) — failing batches
   degrade to the fallback, consecutive failures open the circuit breaker,
   and once the faults stop a half-open probe closes it again with the
   cache unpoisoned,
3. attempt to promote a bad model — validation fails, ``CURRENT`` rolls
   back automatically, and live traffic never notices,
4. survive injected model-*load* failures — a transient fault retries under
   deterministic jittered backoff and succeeds; a corrupted snapshot is
   rejected with a typed error while the service keeps serving the old
   weights.

Run with::

    PYTHONPATH=src python examples/fault_tolerance_walkthrough.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import MSCNConfig, generate_imdb, SyntheticIMDbConfig
from repro.core.estimator import MSCNEstimator
from repro.db.sampling import MaterializedSamples
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.serving import (
    EstimationService,
    ModelPromotionError,
    ModelRegistry,
    RetryPolicy,
    ServiceConfig,
    SnapshotCorruptionError,
)
from repro.utils.faults import FaultPlan, FaultSpec
from repro.workload.generator import QueryGenerator, WorkloadConfig


def main() -> None:
    database = generate_imdb(
        SyntheticIMDbConfig(num_titles=2000, num_companies=300, num_persons=3000,
                            num_keywords=800, seed=7)
    )
    samples = MaterializedSamples(database, sample_size=50, seed=7)
    workload = QueryGenerator(
        database, WorkloadConfig(num_queries=150, max_joins=2, seed=11)
    ).generate()
    queries = [labelled.query for labelled in workload]

    print("== 1. train, publish, serve ==")
    estimator = MSCNEstimator(
        database,
        MSCNConfig(hidden_units=24, epochs=4, batch_size=32, num_samples=50, seed=13),
        samples=samples,
    )
    estimator.fit(workload)
    fallback = RandomSamplingEstimator(database, samples)
    baseline = estimator.estimate_many(queries)

    with tempfile.TemporaryDirectory(prefix="fault-walkthrough-") as tmp:
        registry = ModelRegistry(Path(tmp) / "models", database)
        good_version = registry.publish("mscn", estimator)
        print(f"published model as version {good_version} "
              f"(sha256 manifest written alongside the weights)")

        config = ServiceConfig(
            breaker_failure_threshold=2,
            breaker_reset_timeout_seconds=0.05,
        )
        with EstimationService(
            registry.load("mscn"), fallback=fallback, config=config
        ) as service:
            served = service.estimate_many(queries[:10])
            np.testing.assert_allclose(served, baseline[:10], rtol=1e-5)
            print(f"serving healthy: {service.health()['breaker_state']} breaker, "
                  f"first estimate {served[0]:.1f}\n")

            print("== 2. inference faults: degrade, open, recover ==")
            plan = FaultPlan(
                [FaultSpec("engine.run", kind="error", max_triggers=3)], seed=42
            )
            with plan.activate():
                for index in range(10, 16):
                    value = service.estimate(queries[index])
                    print(f"  query {index}: {value:12.1f}  "
                          f"breaker={service.breaker.state}")
            stats = service.stats()
            print(f"faults fired: {plan.triggered()} — {stats.degraded_queries} "
                  f"degraded answers, {stats.breaker_opens} breaker open(s)")
            # Faults are exhausted: the next request is the half-open probe.
            import time
            time.sleep(0.06)  # let the (tiny) reset timeout elapse
            probe = service.estimate(queries[16])
            print(f"recovery probe answered {probe:.1f}; "
                  f"breaker={service.breaker.state}")
            # Degraded answers were never cached, so the same queries now
            # return exactly the model's estimates.
            replayed = service.estimate_many(queries[10:16])
            print(f"replayed degraded queries through the healed model: "
                  f"max rel. diff vs direct path "
                  f"{np.max(np.abs(replayed / estimator.estimate_many(queries[10:16]) - 1)):.2e}\n")

            print("== 3. bad promotion rolls back automatically ==")
            bad_model = MSCNEstimator(
                database,
                MSCNConfig(hidden_units=8, epochs=1, batch_size=32, num_samples=50,
                           seed=99),
                samples=samples,
            )
            bad_model.fit(workload[:5])  # effectively untrained

            labels = np.array([labelled.cardinality for labelled in workload[:30]],
                              dtype=np.float64)
            incumbent_q = np.median(
                np.abs(np.log(np.maximum(baseline[:30], 1.0)) - np.log(np.maximum(labels, 1.0)))
            )

            def validator(candidate: MSCNEstimator) -> bool:
                """Veto any candidate clearly worse than the serving model."""
                estimates = np.maximum(candidate.estimate_many(queries[:30]), 1.0)
                candidate_q = np.median(
                    np.abs(np.log(estimates) - np.log(np.maximum(labels, 1.0)))
                )
                return bool(candidate_q <= 1.1 * incumbent_q)

            try:
                registry.promote("mscn", bad_model, validator=validator)
            except ModelPromotionError as error:
                print(f"promotion rejected: {error}")
            print(f"CURRENT still points at version "
                  f"{registry.current_version('mscn')}; traffic unaffected: "
                  f"{service.estimate(queries[0]):.1f}\n")

            print("== 4. model-load failures: retry, and corruption rejection ==")
            transient = FaultPlan([FaultSpec("registry.load", max_triggers=2)])
            with transient.activate():
                reloaded = registry.load(
                    "mscn", retry=RetryPolicy(max_attempts=4, base_delay_seconds=0.01)
                )
            print(f"transient load failures retried under backoff "
                  f"({transient.triggered()} injected failures survived)")
            service.swap_model(reloaded)
            print(f"hot-swapped the re-loaded model; serving "
                  f"{service.estimate(queries[1]):.1f}")

            corruption = FaultPlan(
                [FaultSpec("registry.load", kind="corrupt", max_triggers=1)]
            )
            try:
                with corruption.activate():
                    service.swap_model(registry.load("mscn"))
            except SnapshotCorruptionError as error:
                print(f"corrupted snapshot rejected (typed, no retries): {error}")
            print(f"service still serving the previous weights: "
                  f"{service.estimate(queries[2]):.1f}")
            print(f"\nfinal stats: {service.stats().describe()}")


if __name__ == "__main__":
    main()
