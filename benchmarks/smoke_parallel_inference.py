"""CI smoke test of the parallel low-precision inference tier.

Exercises the replica workers of :class:`~repro.core.inference.InferenceEngine`
and the quantized weight snapshots end to end at a miniature scale:

* **Bit-identity** — pooled ``estimate_many`` output equals the single-engine
  serial path exactly, for several replica counts and chunk sizes (the
  engine's determinism contract; holds on any core count).
* **Throughput floor** — on runners with >= 4 cores, the pooled engine must
  sustain at least ``MIN_POOLED_SPEEDUP`` the single-engine fused-inference
  throughput.  On smaller hosts (including 1-core containers, where thread
  parallelism cannot pay) the floor degrades to "no pathological slowdown".
* **Precision contract** — serving float16 / int8 weight snapshots keeps the
  median q-error within 5% relative of the float32 engine and never reorders
  estimates beyond quantization-scale near-ties.

BLAS threading is pinned to one thread *before numpy loads*, so the replica
pool is the only source of parallelism being measured.

Writes ``benchmarks/results/BENCH_smoke_parallel_inference.json`` (throughput,
latency percentiles, dtype, replica count) next to a ``.txt`` report.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_parallel_inference.py``) from CI next to the other smokes.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere: the pool's worker
# threads are the parallelism under test, and a multi-threaded BLAS would
# both inflate the single-engine baseline and contend with the replicas.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import time
from pathlib import Path

import numpy as np

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.core.trainer import MSCNTrainer
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.db.sampling import MaterializedSamples
from repro.evaluation.metrics import q_errors
from repro.utils.bench import latency_percentiles_ms, write_bench_json
from repro.workload.generator import QueryGenerator, WorkloadConfig

RESULTS_DIRECTORY = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIRECTORY / "smoke_parallel_inference.txt"

#: Pooled-vs-single throughput floor, enforced only on >= 4 physical cores.
MIN_POOLED_SPEEDUP = 1.5
#: Cores below this get the degraded floor (bit-identity + sanity only).
MIN_CORES_FOR_FLOOR = 4
#: On small hosts the pool must at least not collapse under thread overhead.
MAX_SMALL_HOST_SLOWDOWN = 0.5
#: Quantized tiers: |median q-error delta| / float32 median must stay below.
MAX_MEDIAN_Q_ERROR_DRIFT = 0.05
REPEATS = 5


def best_throughput(run, num_queries: int, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return num_queries / best


def serving_clone(reference: MSCNEstimator, database, samples, **overrides):
    """A serving-tier variant of ``reference`` sharing its trained weights."""
    clone = MSCNEstimator(
        database, reference.config.replace(**overrides), samples=samples
    )
    clone._model = reference._model
    clone._normalizer = reference._normalizer
    clone._trainer = MSCNTrainer(clone._model, clone._normalizer, clone.config)
    return clone


def main() -> int:
    cores = os.cpu_count() or 1
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
    truths = np.array([labelled.cardinality for labelled in workload])

    # Hidden width large enough that fused matmuls (not featurization or
    # Python dispatch) dominate a batch, so replica parallelism is visible.
    config = MSCNConfig(
        hidden_units=128, epochs=4, batch_size=32, num_samples=50, seed=13
    )
    single = MSCNEstimator(database, config, samples=samples)
    single.fit(workload)
    replicas = min(max(cores, 2), 4)
    pooled = serving_clone(
        single, database, samples, engine_replicas=replicas, inference_chunk_size=16
    )

    # Warm the bitmap caches and the compiled featurizer plan on both paths.
    single_reference = single._trainer.predict(
        single.serving_dataset(queries), batch_size=16
    )
    pooled_estimates = pooled.estimate_many(queries)

    # --- determinism: pooled == serial single-engine, bit for bit ---------
    np.testing.assert_array_equal(pooled_estimates, single_reference)
    dataset = single.serving_dataset(queries)
    for chunk_size in (1, 7, 64):
        expected = single._trainer.engine().run(dataset, chunk_size=chunk_size)
        actual = pooled._trainer.engine().run(dataset, chunk_size=chunk_size)
        np.testing.assert_array_equal(actual, expected)

    # --- throughput: pooled vs single-engine end to end -------------------
    single_qps = best_throughput(lambda: single.estimate_many(queries), len(queries))
    pooled_qps = best_throughput(lambda: pooled.estimate_many(queries), len(queries))
    speedup = pooled_qps / single_qps

    single_latencies = []
    for query in queries[:100]:
        start = time.perf_counter()
        pooled.estimate(query)
        single_latencies.append(time.perf_counter() - start)
    p50_ms, p95_ms = latency_percentiles_ms(single_latencies)

    if cores >= MIN_CORES_FOR_FLOOR:
        floor_note = f"required >= {MIN_POOLED_SPEEDUP:.1f}x on {cores} cores"
        assert speedup >= MIN_POOLED_SPEEDUP, (
            f"pooled throughput is only {speedup:.2f}x the single engine "
            f"({floor_note})"
        )
    else:
        floor_note = (
            f"{cores} core(s) < {MIN_CORES_FOR_FLOOR}: bit-identity + sanity floor only"
        )
        assert speedup >= MAX_SMALL_HOST_SLOWDOWN, (
            f"pooled throughput collapsed to {speedup:.2f}x on a small host"
        )

    # --- precision tiers: accuracy contract -------------------------------
    reference_q = q_errors(single_reference, truths)
    reference_median = float(np.median(reference_q))
    precision_rows = []
    for precision in ("float16", "int8"):
        quantized = serving_clone(
            single, database, samples, inference_precision=precision
        )
        estimates = quantized.estimate_many(queries)
        median = float(np.median(q_errors(estimates, truths)))
        drift = abs(median - reference_median) / reference_median
        assert drift < MAX_MEDIAN_Q_ERROR_DRIFT, (
            f"{precision} median q-error {median:.4f} drifted {100 * drift:.2f}% "
            f"from float32 {reference_median:.4f}"
        )
        # Ranking preserved up to quantization-scale near-ties: walking the
        # quantized ordering, reference estimates never drop materially
        # below their running maximum.
        order = np.argsort(estimates, kind="stable")
        in_order = single_reference[order]
        running_max = np.maximum.accumulate(in_order)
        inversion = float(((running_max - in_order) / running_max).max())
        assert inversion < MAX_MEDIAN_Q_ERROR_DRIFT, (
            f"{precision} reordered non-tied estimates ({100 * inversion:.2f}%)"
        )
        stored = quantized._trainer.engine().snapshot.stored_num_bytes
        precision_rows.append((precision, median, drift, inversion, stored))

    fp32_stored = single._trainer.engine().snapshot.stored_num_bytes

    report_lines = [
        f"parallel inference smoke ({cores} cores, BLAS pinned to 1 thread):",
        f"  single engine (float32)     : {single_qps:>10.0f} queries/s",
        f"  pool x{replicas} (chunk 16)        : {pooled_qps:>10.0f} queries/s "
        f"({speedup:.2f}x, {floor_note})",
        f"  pooled single-query latency : p50 {p50_ms:.3f} ms, p95 {p95_ms:.3f} ms",
        f"  float32 snapshot            : {fp32_stored / 1024:.0f} KiB, "
        f"median q-error {reference_median:.4f}",
    ]
    for precision, median, drift, inversion, stored in precision_rows:
        report_lines.append(
            f"  {precision:<8} snapshot           : {stored / 1024:>5.0f} KiB, "
            f"median q-error {median:.4f} ({100 * drift:+.2f}% vs float32, "
            f"max near-tie inversion {100 * inversion:.2f}%)"
        )
    report = "\n".join(report_lines) + "\n"
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(report, encoding="utf-8")

    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_parallel_inference",
        throughput_qps=pooled_qps,
        p50_ms=p50_ms,
        p95_ms=p95_ms,
        dtype=single.config.dtype,
        precision="float32",
        replicas=replicas,
        metrics={
            "single_engine_qps": single_qps,
            "pooled_speedup": speedup,
            "speedup_floor_enforced": cores >= MIN_CORES_FOR_FLOOR,
            "chunk_size": 16,
            "num_queries": len(queries),
            "float32_median_q_error": reference_median,
            "float32_snapshot_bytes": fp32_stored,
            **{
                f"{precision}_median_q_error": median
                for precision, median, _, _, _ in precision_rows
            },
            **{
                f"{precision}_snapshot_bytes": stored
                for precision, _, _, _, stored in precision_rows
            },
        },
    )
    print(report, end="")
    print("parallel inference smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
