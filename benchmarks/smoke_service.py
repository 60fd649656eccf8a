"""CI smoke test of the estimation service (cached vs uncached throughput).

Serves a repeat-heavy workload — the traffic shape a query optimizer
generates, costing the same subqueries across plan enumerations — twice:

* **uncached**: every repetition pays featurization + fused inference through
  ``MSCNEstimator.estimate_many`` (the PR-2 serving path), and
* **cached**: the same repetitions go through the
  :class:`~repro.serving.service.EstimationService`, where all but the first
  pass are answered from the signature-keyed LRU.

Asserts the cached service sustains at least 5x the uncached repeat-workload
throughput, that the service's answers match the direct path, and that
join-count routing sends every out-of-distribution (3-4 join) query to the
fallback without running a model batch.  The measured numbers are appended to
``benchmarks/results/smoke_service.txt``.

Invoked as a plain script (``PYTHONPATH=src python benchmarks/smoke_service.py``)
from CI so the serving front-end is exercised on every push.
"""

from __future__ import annotations

# Pin BLAS threading before numpy loads anywhere: smoke timings must
# measure the repository's own threading tiers, not the BLAS pool's.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import sys
import time
from pathlib import Path

import numpy as np

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.db.sampling import MaterializedSamples
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.serving import EstimationService, ServiceConfig
from repro.utils.bench import write_bench_json
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload

REPEATS = 5
MIN_SPEEDUP = 5.0
RESULTS_PATH = Path(__file__).parent / "results" / "smoke_service.txt"


def main() -> int:
    database = generate_imdb(
        SyntheticIMDbConfig(
            num_titles=2000, num_companies=300, num_persons=3000, num_keywords=800, seed=7
        )
    )
    samples = MaterializedSamples(database, sample_size=50, seed=7)
    workload = QueryGenerator(
        database, WorkloadConfig(num_queries=150, max_joins=2, seed=11)
    ).generate()
    queries = [labelled.query for labelled in workload]

    config = MSCNConfig(hidden_units=24, epochs=4, batch_size=32, num_samples=50, seed=13)
    estimator = MSCNEstimator(database, config, samples=samples)
    estimator.fit(workload)

    # Uncached baseline: every repeat featurizes and infers from scratch.
    estimator.estimate_many(queries)  # warm the bitmap cache and the compiled keys
    start = time.perf_counter()
    for _ in range(REPEATS):
        direct = estimator.estimate_many(queries)
    uncached_seconds = time.perf_counter() - start
    uncached_qps = REPEATS * len(queries) / uncached_seconds

    # Cached service: the first pass computes, later passes hit the LRU.
    with EstimationService(estimator) as service:
        served = service.estimate_many(queries)  # cold pass fills the cache
        np.testing.assert_array_equal(served, direct)
        start = time.perf_counter()
        for _ in range(REPEATS):
            repeat = service.estimate_many(queries)
        cached_seconds = time.perf_counter() - start
        np.testing.assert_array_equal(repeat, served)
        stats = service.stats()
    cached_qps = REPEATS * len(queries) / cached_seconds
    speedup = cached_qps / uncached_qps
    assert stats.cache_hit_rate > 0.8, f"repeat workload should hit the cache: {stats}"
    assert speedup >= MIN_SPEEDUP, (
        f"cached serving is only {speedup:.1f}x the uncached path "
        f"(required >= {MIN_SPEEDUP:.0f}x)"
    )

    # Join-count-routed fallback: 3-4-join traffic leaves the trained range
    # and must reach the traditional estimator, per the paper's Section 5.
    fallback = RandomSamplingEstimator(database, samples)
    scale = generate_scale_workload(
        database, ScaleWorkloadConfig(queries_per_join_count=5, max_joins=4, seed=17)
    )
    out_of_distribution = [q.query for q in scale if q.num_joins >= 3]
    with EstimationService(
        estimator, fallback=fallback, config=ServiceConfig(max_joins=2)
    ) as routed_service:
        routed_estimates = routed_service.estimate_many(out_of_distribution)
        routed_stats = routed_service.stats()
    assert np.isfinite(routed_estimates).all() and (routed_estimates >= 1.0).all()
    assert routed_stats.fallback_queries == len(out_of_distribution), (
        f"out-of-range joins must route to the fallback: {routed_stats.describe()}"
    )
    assert routed_stats.coalesced_batches == 0, (
        f"routed queries must not reach the model: {routed_stats.describe()}"
    )

    report = (
        f"service smoke: {len(queries)} unique queries x {REPEATS} repeats\n"
        f"  uncached estimate_many : {uncached_qps:>10.0f} queries/s "
        f"({1000.0 * uncached_seconds / (REPEATS * len(queries)):.4f} ms/query)\n"
        f"  cached service         : {cached_qps:>10.0f} queries/s "
        f"({1000.0 * cached_seconds / (REPEATS * len(queries)):.4f} ms/query)\n"
        f"  speedup                : {speedup:>10.1f}x (required >= {MIN_SPEEDUP:.0f}x)\n"
        f"  service stats          : {stats.describe()}\n"
        f"  fallback routing       : {routed_stats.fallback_queries}/"
        f"{len(out_of_distribution)} out-of-distribution queries routed "
        f"({routed_stats.describe()})\n"
    )
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(report, encoding="utf-8")
    write_bench_json(
        RESULTS_PATH.parent,
        "smoke_service",
        throughput_qps=cached_qps,
        dtype=config.dtype,
        metrics={
            "uncached_qps": uncached_qps,
            "cached_speedup": speedup,
            "cache_hit_rate": stats.cache_hit_rate,
            "fallback_routed": routed_stats.fallback_queries,
            "num_queries": len(queries),
            "repeats": REPEATS,
        },
    )
    print(report, end="")
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
