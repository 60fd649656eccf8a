"""CI smoke test of the schema-agnostic dataset registry.

Runs a miniature end-to-end train -> fused-inference -> serving round trip
on *every* registered dataset, so a push can never silently break a join
topology: for each spec the full pipeline is exercised (generate, label a
stratified workload, train MSCN, answer through the fused engine, answer
through the cache-fronted :class:`~repro.serving.EstimationService`) and the
served results are cross-checked against the estimator's direct answers.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_scenarios.py``) from CI next to the fused-inference and
service smokes.
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
from repro.datasets import registered_datasets
from repro.db.sampling import MaterializedSamples
from repro.serving import EstimationService, ServiceConfig
from repro.utils.bench import write_bench_json
from repro.workload.generator import generate_training_workload

RESULTS_DIRECTORY = Path(__file__).parent / "results"


def main() -> int:
    specs = registered_datasets()
    assert len(specs) >= 3, "expected at least imdb + retail + forum to be registered"
    started = time.perf_counter()
    queries_served = 0
    for spec in specs:
        database = spec.generate(scale=0.05, seed=7)
        samples = MaterializedSamples(database, sample_size=40, seed=7)
        workload = generate_training_workload(spec, database, num_queries=120, seed=11)
        queries = [labelled.query for labelled in workload]

        config = MSCNConfig(hidden_units=24, epochs=4, batch_size=32, num_samples=40, seed=13)
        estimator = MSCNEstimator(database, config, samples=samples)
        estimator.fit(workload)

        # Fused inference path (the serving default).
        direct = estimator.estimate_many(queries)
        assert direct.shape == (len(queries),)
        assert np.isfinite(direct).all() and (direct >= 1.0).all()

        # Serving round trip: cold pass answers through one fused batch,
        # warm pass must be pure cache hits agreeing bit for bit.
        service = EstimationService(estimator, config=ServiceConfig(cache_capacity=256))
        try:
            served = service.estimate_many(queries)
            repeated = service.estimate_many(queries)
        finally:
            service.close()
        np.testing.assert_allclose(served, direct, rtol=1e-6)
        np.testing.assert_array_equal(repeated, served)
        assert service.stats().cache_hits >= len(queries)

        graph = spec.join_graph()
        queries_served += len(queries)
        print(
            f"  {spec.name}: OK ({graph.num_tables} tables, "
            f"diameter {graph.diameter}, {len(queries)} queries round-tripped)"
        )
    elapsed = time.perf_counter() - started
    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_scenarios",
        throughput_qps=queries_served / elapsed if elapsed > 0 else None,
        dtype="float32",
        precision="float32",
        metrics={
            "datasets": len(specs),
            "queries_round_tripped": queries_served,
            "total_seconds": elapsed,
        },
    )
    print(
        f"scenario smoke OK: {len(specs)} datasets trained and served "
        f"in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
