"""CI smoke test of the fused ragged inference path.

Runs the full serving pipeline at a miniature scale in a few seconds: build a
tiny synthetic database, train an MSCN for a couple of epochs in the default
float32 serving configuration, answer queries through the fused
:class:`~repro.core.inference.InferenceEngine`, and cross-check the float64
engine's chunked serving path against the model's forward pass over the
same dataset bit for bit.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_fused_inference.py``) from CI so the serving hot path is
executed on every push, not just constructed.
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

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.core.model import forward
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.db.sampling import MaterializedSamples
from repro.utils.bench import write_bench_json
from repro.workload.generator import QueryGenerator, WorkloadConfig

RESULTS_DIRECTORY = Path(__file__).parent / "results"


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

    base = MSCNConfig(
        hidden_units=24, epochs=4, batch_size=32, num_samples=50, seed=13
    )
    assert base.dtype == "float32", "serving defaults changed"

    # Default float32 fused serving path.
    estimator = MSCNEstimator(database, base, samples=samples)
    estimator.fit(workload)
    start = time.perf_counter()
    estimates = estimator.estimate_many(queries)
    elapsed_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
    assert estimates.shape == (len(queries),)
    assert np.isfinite(estimates).all() and (estimates >= 1.0).all()

    # Float64 cross-check: chunked engine == one forward pass, bit for bit.
    estimator64 = MSCNEstimator(
        database, base.replace(dtype="float64"), samples=samples
    )
    estimator64.fit(workload)
    fused = estimator64.estimate_many(queries)
    normalized = forward(
        estimator64.featurizer.featurize_ragged(queries), estimator64._model.layers
    )
    reference = estimator64._normalizer.denormalize(normalized[:, 0])
    np.testing.assert_array_equal(fused, reference)

    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_fused_inference",
        throughput_qps=1000.0 / elapsed_ms if elapsed_ms > 0 else None,
        dtype=base.dtype,
        precision=base.dtype,
        metrics={
            "ms_per_query": elapsed_ms,
            "num_queries": len(queries),
            "float64_bit_identity": True,
        },
    )
    print(
        f"fused inference smoke OK: {len(queries)} queries, "
        f"{elapsed_ms:.3f} ms/query (float32 fused), float64 fused == forward"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
