"""Figure 3 + Table 2: estimation errors on the synthetic workload.

Evaluates PostgreSQL-style statistics, Random Sampling, Index-Based Join
Sampling and MSCN (bitmaps) on the synthetic evaluation workload and reports
the paper's q-error percentile table plus the per-join-count signed-error
break-down that underlies the box plot of Figure 3.
"""

from __future__ import annotations

import pytest

from repro.estimators import (
    IndexBasedJoinSamplingEstimator,
    PostgresEstimator,
    RandomSamplingEstimator,
)
from repro.evaluation.reporting import format_join_breakdown, format_summary_table
from repro.evaluation.runner import evaluate_estimator, evaluate_estimators


@pytest.fixture(scope="module")
def estimators(scenario, mscn_config):
    """All four competitors of Figure 3 / Table 2 (MSCN training is cached)."""
    mscn = scenario.trained_mscn(mscn_config)
    return [
        PostgresEstimator(scenario.database),
        RandomSamplingEstimator(scenario.database, scenario.samples),
        IndexBasedJoinSamplingEstimator(scenario.database, scenario.samples),
        mscn,
    ]


def test_table2_estimation_errors(synthetic_workload, estimators, write_result, benchmark):
    workload = synthetic_workload

    def run_all_estimators():
        return evaluate_estimators(estimators, workload)

    results = benchmark.pedantic(run_all_estimators, rounds=1, iterations=1)
    summary_table = format_summary_table(
        {name: result.summary() for name, result in results.items()},
        title="Estimation errors on the synthetic workload (paper Table 2)",
    )
    breakdown = format_join_breakdown(
        results,
        title="Signed error ratio percentiles by join count (paper Figure 3)",
    )
    write_result("table2_synthetic_errors", summary_table + "\n\n" + breakdown)

    # Qualitative shape checks against the paper's findings.
    mscn_name = [name for name in results if name.startswith("MSCN")][0]
    mscn = results[mscn_name].summary()
    random_sampling = results["Random Sampling"].summary()
    # MSCN is far more robust than pure sampling at the tail of the
    # distribution (paper: 99th percentile 30.5 vs 587).
    assert mscn.percentile_99 <= random_sampling.percentile_99
    # All estimators are reasonable in the median (within one order of magnitude).
    for result in results.values():
        assert result.summary().median < 10


def test_figure3_mscn_prediction_latency(scenario, mscn_config, synthetic_workload, benchmark):
    """Per-query prediction latency of the trained model (ms; Section 4.7)."""
    mscn = scenario.trained_mscn(mscn_config)
    queries = [labelled.query for labelled in synthetic_workload[:200]]

    def estimate_workload():
        return mscn.estimate_many(queries)

    estimates = benchmark(estimate_workload)
    assert len(estimates) == 200


def test_figure3_postgres_estimation_latency(scenario, synthetic_workload, benchmark):
    postgres = PostgresEstimator(scenario.database)
    queries = [labelled.query for labelled in synthetic_workload[:200]]
    estimates = benchmark(lambda: postgres.estimate_many(queries))
    assert len(estimates) == 200
