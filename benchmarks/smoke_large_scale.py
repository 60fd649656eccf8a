"""CI smoke test of the large-scale tier.

Exercises the million-row path end to end on the retail star:

1. generate ``scale="large"`` retail with streaming chunked emission and
   assert the fact table crosses one million rows,
2. label a training workload from per-table row samples (multiplicity
   corrected, with confidence bounds) and hold a rows-labeled/s floor,
3. train a miniature MSCN on the sampled labels and estimate an evaluation
   workload (finite median q-error proves featurization + training + truth
   oracle stay tractable at this tier),
4. assert the whole run stayed under a peak-RSS ceiling.

The exact executor's counts are checked against a nested-loop reference by
``tests/db/test_executor_oracle.py`` and, at this scale, by the pipeline
benchmark's ``truth_large`` workload.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_large_scale.py``) from CI next to the other smokes.
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
from repro.datasets import get_dataset
from repro.db.sampling import MaterializedSamples
from repro.evaluation.runner import evaluate_estimator
from repro.utils.bench import write_bench_json
from repro.workload.generator import QueryGenerator, WorkloadConfig

RESULTS_DIRECTORY = Path(__file__).parent / "results"

#: Peak-RSS ceiling for the whole process.  The large retail snapshot holds
#: roughly 60 MiB of column storage; the ceiling leaves room for the python
#: runtime, numpy and the executor's whole-array intermediates while still
#: failing loudly if the run starts holding extra copies of the fact table
#: (the run peaks below 200 MiB today).
PEAK_RSS_CEILING_MB = 512

#: Floor on sampled-labeling throughput, in labels emitted per second.  The
#: sampled executor runs on <= 100k-row samples, so tens of labels per second
#: is comfortable; the floor only catches order-of-magnitude regressions on
#: shared CI runners.
LABELS_PER_SECOND_FLOOR = 2.0


def peak_rss_mb() -> float | None:
    """Peak resident set size of this process in MiB (None if unsupported)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return ru_maxrss / (1024 * 1024)
    return ru_maxrss / 1024


def main() -> int:
    spec = get_dataset("retail")
    assert "large" in spec.tier_names()

    started = time.perf_counter()
    database = spec.generate(scale="large", seed=7)
    generation_seconds = time.perf_counter() - started
    sales_rows = database.table("sales").num_rows
    database_mb = database.memory_bytes() / (1024 * 1024)
    assert sales_rows >= 1_000_000, f"large tier produced only {sales_rows} sales rows"
    print(
        f"  generated large retail in {generation_seconds:.1f}s: "
        f"{sales_rows} sales rows, {database.total_rows()} total rows, "
        f"{database_mb:.1f} MiB column storage"
    )

    # -- sampled truth labeling -------------------------------------------
    label_started = time.perf_counter()
    training = QueryGenerator(
        database,
        WorkloadConfig(
            num_queries=150,
            max_joins=2,
            seed=23,
            truth_mode="auto",
            truth_row_budget=500_000,
            truth_sample_rows=100_000,
        ),
    ).generate()
    label_seconds = time.perf_counter() - label_started
    labels_per_second = len(training) / label_seconds if label_seconds > 0 else float("inf")
    sampled = [entry for entry in training if entry.truth_mode == "sampled"]
    assert sampled, "the 500k-row budget must route fact-table queries to sampling"
    for entry in sampled:
        lower, upper = entry.bounds
        assert 0.0 <= lower <= entry.cardinality <= upper, entry
    assert labels_per_second >= LABELS_PER_SECOND_FLOOR, (
        f"sampled labeling throughput {labels_per_second:.2f} labels/s "
        f"below the {LABELS_PER_SECOND_FLOOR} floor"
    )
    print(
        f"  labelled {len(training)} training queries in {label_seconds:.1f}s "
        f"({labels_per_second:.1f} labels/s; {len(sampled)} sampled with bounds)"
    )

    # -- train -> estimate on the large tier ------------------------------
    train_started = time.perf_counter()
    samples = MaterializedSamples(database, sample_size=50, seed=7)
    config = MSCNConfig(hidden_units=24, epochs=6, batch_size=64, num_samples=50, seed=13)
    estimator = MSCNEstimator(database, config, samples=samples)
    estimator.fit(training)
    evaluation = QueryGenerator(
        database,
        WorkloadConfig(
            num_queries=60,
            max_joins=2,
            seed=31,
            truth_mode="sampled",
            truth_sample_rows=100_000,
        ),
    ).generate()
    result = evaluate_estimator(estimator, evaluation)
    summary = result.summary()
    train_seconds = time.perf_counter() - train_started
    assert np.isfinite(summary.median) and summary.median >= 1.0
    print(
        f"  trained and evaluated MSCN in {train_seconds:.1f}s "
        f"(median q-error {summary.median:.2f} on {len(evaluation)} queries)"
    )

    # -- resident-size ceiling --------------------------------------------
    rss_mb = peak_rss_mb()
    if rss_mb is not None:
        assert rss_mb <= PEAK_RSS_CEILING_MB, (
            f"peak RSS {rss_mb:.0f} MiB exceeded the {PEAK_RSS_CEILING_MB} MiB ceiling"
        )
        print(f"  peak RSS {rss_mb:.0f} MiB (ceiling {PEAK_RSS_CEILING_MB} MiB)")

    elapsed = time.perf_counter() - started
    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_large_scale",
        throughput_qps=labels_per_second,
        dtype="float32",
        metrics={
            "sales_rows": sales_rows,
            "total_rows": database.total_rows(),
            "database_mb": database_mb,
            "generation_seconds": generation_seconds,
            "label_seconds": label_seconds,
            "labels_per_second": labels_per_second,
            "sampled_labels": len(sampled),
            "median_q_error": summary.median,
            "peak_rss_mb": rss_mb,
            "total_seconds": elapsed,
        },
    )
    print(f"large-scale smoke OK: million-row tier end to end in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
