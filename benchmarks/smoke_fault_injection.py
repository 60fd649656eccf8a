"""CI smoke test of the serving reliability layer under injected faults.

Drives concurrent traffic through an :class:`EstimationService` while a
seeded :class:`~repro.utils.faults.FaultPlan` injects inference exceptions
and latency spikes at ``engine.run``, then measures:

* **availability** — the fraction of requests answered with an estimate
  (model or degraded-fallback) instead of an error,
* **answered-or-typed** — the fraction of requests that resolved at all,
  to an estimate *or* a typed reliability error (the floor is 100%: a
  fault-tolerant service never hangs a caller and never raises an untyped
  surprise),
* **recovery** — after the faults stop, how many probe requests it takes
  for the circuit breaker to close again (floor: a bounded count), and
  that a cold pass over the workload is then **bit-identical** to a
  service that never saw a fault,
* **crash-safe lifecycle** — a corrupted registry snapshot is rejected
  with a typed error after zero retries, a transiently failing load
  recovers under its deterministic backoff schedule, and a promotion whose
  validation fails rolls ``CURRENT`` back automatically.

The measured numbers are appended to
``benchmarks/results/smoke_fault_injection.txt`` and recorded as
``BENCH_smoke_fault_injection.json``.

Invoked as a plain script
(``PYTHONPATH=src python benchmarks/smoke_fault_injection.py``) from CI so
the reliability layer is exercised on every push.
"""

from __future__ import annotations

# Pin BLAS threading before numpy loads anywhere: smoke timings must
# measure the repository's own threading tiers, not the BLAS pool's.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.db.sampling import MaterializedSamples
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.serving import (
    BreakerState,
    DeadlineExceededError,
    EstimationService,
    ModelPromotionError,
    ModelRegistry,
    RetryPolicy,
    ServiceConfig,
    ServiceOverloadedError,
    SnapshotCorruptionError,
)
from repro.utils.bench import latency_percentiles_ms, write_bench_json
from repro.utils.faults import FaultPlan, FaultSpec
from repro.workload.generator import QueryGenerator, WorkloadConfig

NUM_WORKERS = 6
MAX_RECOVERY_PROBES = 25
RESULTS_PATH = Path(__file__).parent / "results" / "smoke_fault_injection.txt"


def main() -> int:
    database = generate_imdb(
        SyntheticIMDbConfig(
            num_titles=2000, num_companies=300, num_persons=3000, num_keywords=800, seed=7
        )
    )
    samples = MaterializedSamples(database, sample_size=50, seed=7)
    workload = QueryGenerator(
        database, WorkloadConfig(num_queries=120, max_joins=2, seed=11)
    ).generate()
    queries = [labelled.query for labelled in workload]

    config = MSCNConfig(hidden_units=24, epochs=4, batch_size=32, num_samples=50, seed=13)
    estimator = MSCNEstimator(database, config, samples=samples)
    estimator.fit(workload)
    fallback = RandomSamplingEstimator(database, samples)
    baseline = estimator.estimate_many(queries)
    fallback_values = np.asarray(fallback.estimate_many(queries), dtype=np.float64)

    service_config = ServiceConfig(
        max_queue_depth=64,
        breaker_failure_threshold=2,
        breaker_reset_timeout_seconds=0.02,
        request_timeout_seconds=30.0,
    )
    plan = FaultPlan(
        [
            FaultSpec("engine.run", kind="error", probability=0.4, max_triggers=8),
            FaultSpec(
                "engine.run",
                kind="latency",
                probability=0.25,
                latency_seconds=0.002,
                max_triggers=10,
            ),
        ],
        seed=2024,
    )

    # ------------------------------------------------------------------
    # Phase 1: concurrent traffic under the active fault plan.
    # ------------------------------------------------------------------
    outcomes: dict[int, tuple] = {}
    latencies: list[float] = []
    lock = threading.Lock()
    barrier = threading.Barrier(NUM_WORKERS)
    per_worker = len(queries) // NUM_WORKERS
    typed = (DeadlineExceededError, ServiceOverloadedError)
    service = EstimationService(estimator, fallback=fallback, config=service_config)

    def worker(slot: int) -> None:
        barrier.wait()
        for index in range(slot * per_worker, (slot + 1) * per_worker):
            start = time.perf_counter()
            try:
                outcome = ("value", service.estimate(queries[index]))
            except typed as error:
                outcome = ("typed", type(error).__name__)
            except Exception as error:  # noqa: BLE001 — counted as a violation
                outcome = ("untyped", repr(error))
            elapsed = time.perf_counter() - start
            with lock:
                outcomes[index] = outcome
                latencies.append(elapsed)

    chaos_start = time.perf_counter()
    with plan.activate():
        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(NUM_WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        hung = sum(thread.is_alive() for thread in threads)
    chaos_seconds = time.perf_counter() - chaos_start

    total = NUM_WORKERS * per_worker
    model_answers = degraded_answers = typed_errors = violations = 0
    for index, (kind, payload) in sorted(outcomes.items()):
        if kind == "value":
            if np.isclose(payload, baseline[index], rtol=1e-4):
                model_answers += 1
            elif np.isclose(payload, fallback_values[index], rtol=1e-9):
                degraded_answers += 1
            else:
                violations += 1  # a silent wrong answer
        elif kind == "typed":
            typed_errors += 1
        else:
            violations += 1  # an untyped error
    answered_or_typed = (model_answers + degraded_answers + typed_errors) / total
    availability = (model_answers + degraded_answers) / total

    assert hung == 0, f"{hung} request thread(s) hung"
    assert len(outcomes) == total
    assert violations == 0, f"{violations} silent wrong answers / untyped errors"
    assert answered_or_typed == 1.0, (
        f"only {100 * answered_or_typed:.1f}% of requests resolved to an "
        f"estimate or a typed error"
    )
    assert plan.triggered("engine.run") >= 1, "the fault plan never fired"

    # ------------------------------------------------------------------
    # Phase 2: recovery — the breaker must close within a bounded number
    # of probes, and serving must return to the pre-fault output exactly.
    # ------------------------------------------------------------------
    recovery_start = time.perf_counter()
    recovery_probes = 0
    while service.breaker.state != BreakerState.CLOSED:
        assert recovery_probes < MAX_RECOVERY_PROBES, (
            f"breaker still {service.breaker.state} after "
            f"{recovery_probes} probes"
        )
        recovery_probes += 1
        try:
            service.estimate(queries[recovery_probes % len(queries)])
        except typed:
            pass
        time.sleep(0.005)
    recovery_seconds = time.perf_counter() - recovery_start

    service.cache.clear()
    recovered = service.estimate_many(queries)
    with EstimationService(
        estimator, fallback=fallback, config=service_config
    ) as pristine:
        pre_fault = pristine.estimate_many(queries)
    np.testing.assert_array_equal(recovered, pre_fault)
    stats = service.stats()
    service.close()

    # ------------------------------------------------------------------
    # Phase 3: crash-safe model lifecycle (registry).
    # ------------------------------------------------------------------
    import tempfile

    with tempfile.TemporaryDirectory(prefix="fault-registry-") as tmp:
        registry = ModelRegistry(Path(tmp) / "models", database)
        registry.publish("mscn", estimator)

        # A corrupted snapshot is rejected typed, with zero retries.
        corruption_plan = FaultPlan(
            [FaultSpec("registry.load", kind="corrupt", max_triggers=1)]
        )
        try:
            with corruption_plan.activate():
                registry.load("mscn", retry=RetryPolicy(max_attempts=4))
            raise AssertionError("corrupted snapshot loaded without error")
        except SnapshotCorruptionError:
            pass

        # Republish clean bytes; transient failures recover under backoff.
        version = registry.publish("mscn", estimator)
        transient_plan = FaultPlan([FaultSpec("registry.load", max_triggers=2)])
        load_start = time.perf_counter()
        with transient_plan.activate():
            reloaded = registry.load(
                "mscn", version, retry=RetryPolicy(max_attempts=3, seed=5)
            )
        retried_load_seconds = time.perf_counter() - load_start
        np.testing.assert_allclose(
            reloaded.estimate_many(queries[:20]), estimator.estimate_many(queries[:20]),
            rtol=1e-6,
        )

        # A promotion that fails validation rolls CURRENT back automatically.
        try:
            registry.promote("mscn", estimator, validator=lambda model: False)
            raise AssertionError("failed validation did not abort the promotion")
        except ModelPromotionError:
            pass
        assert registry.current_version("mscn") == version, "rollback did not happen"

    p50_ms, p95_ms = latency_percentiles_ms(latencies)
    qps = total / chaos_seconds
    report = (
        f"fault-injection smoke: {total} requests, {NUM_WORKERS} workers, "
        f"seeded plan (errors + latency spikes at engine.run)\n"
        f"  injected faults         : {plan.triggered('engine.run')} fired / "
        f"{plan.evaluations('engine.run')} engine runs evaluated\n"
        f"  outcomes                : {model_answers} model, {degraded_answers} degraded, "
        f"{typed_errors} typed errors, {violations} violations, {hung} hung\n"
        f"  availability            : {100 * availability:.1f}% answered "
        f"(answered-or-typed {100 * answered_or_typed:.1f}%, floor 100%)\n"
        f"  chaos throughput        : {qps:.0f} requests/s "
        f"(p50 {p50_ms:.2f} ms, p95 {p95_ms:.2f} ms)\n"
        f"  recovery                : breaker closed after {recovery_probes} probe(s) "
        f"in {1000 * recovery_seconds:.1f} ms "
        f"(floor <= {MAX_RECOVERY_PROBES}); cold pass bit-identical to pre-fault\n"
        f"  registry                : corruption rejected typed (0 retries), "
        f"transient load recovered in {1000 * retried_load_seconds:.1f} ms, "
        f"failed promotion rolled back\n"
        f"  service stats           : {stats.describe()}\n"
    )
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(report, encoding="utf-8")
    write_bench_json(
        RESULTS_PATH.parent,
        "smoke_fault_injection",
        throughput_qps=qps,
        p50_ms=p50_ms,
        p95_ms=p95_ms,
        dtype=config.dtype,
        precision=config.inference_precision or config.dtype,
        metrics={
            "requests": total,
            "availability": availability,
            "answered_or_typed": answered_or_typed,
            "model_answers": model_answers,
            "degraded_answers": degraded_answers,
            "typed_errors": typed_errors,
            "violations": violations,
            "hung_requests": hung,
            "faults_fired": plan.triggered(),
            "inference_failures": stats.inference_failures,
            "breaker_opens": stats.breaker_opens,
            "recovery_probes": recovery_probes,
            "recovery_seconds": recovery_seconds,
            "retried_load_seconds": retried_load_seconds,
        },
    )
    print(report, end="")
    print("fault-injection smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
