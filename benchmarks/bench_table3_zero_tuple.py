"""Table 3: base-table queries with empty samples (0-tuple situations).

The paper isolates the base-table queries of the synthetic workload whose
materialized sample contains no qualifying tuple — the weak spot of purely
sampling-based estimation — and compares PostgreSQL, Random Sampling and
MSCN on that subset.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import PostgresEstimator, RandomSamplingEstimator
from repro.evaluation.reporting import format_summary_table
from repro.evaluation.runner import evaluate_estimators


@pytest.fixture(scope="module")
def zero_tuple_queries(scenario, synthetic_workload):
    """Base-table queries of the synthetic workload with all-zero bitmaps."""
    base_table_queries = [q for q in synthetic_workload if q.num_joins == 0]
    return [
        labelled
        for labelled in base_table_queries
        if scenario.samples.qualifying_count(
            labelled.query.tables[0], labelled.query.predicates
        )
        == 0
    ]


def test_table3_zero_tuple_errors(
    scenario, mscn_config, synthetic_workload, zero_tuple_queries, write_result, benchmark
):
    assert zero_tuple_queries, "the synthetic workload must contain 0-tuple queries"
    mscn = scenario.trained_mscn(mscn_config)
    estimators = [
        PostgresEstimator(scenario.database),
        RandomSamplingEstimator(scenario.database, scenario.samples),
        mscn,
    ]

    def run():
        return evaluate_estimators(estimators, zero_tuple_queries)

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    base_table_count = len([q for q in synthetic_workload if q.num_joins == 0])
    share = 100.0 * len(zero_tuple_queries) / base_table_count
    header = (
        f"{len(zero_tuple_queries)} of {base_table_count} base-table queries "
        f"({share:.0f}%) have empty samples (paper: 376 of 1636, 22%)\n"
    )
    table = format_summary_table(
        {name: result.summary() for name, result in results.items()},
        title="Estimation errors on base-table queries with empty samples (paper Table 3)",
    )
    write_result("table3_zero_tuple", header + table)

    # Shape check: in 0-tuple situations the learned model is at least as
    # accurate as Random Sampling's educated guess (paper: mean 6.9 vs 147);
    # a small tolerance absorbs run-to-run training noise at this scale.
    mscn_name = [name for name in results if name.startswith("MSCN")][0]
    mscn_mean = results[mscn_name].summary().mean
    assert mscn_mean <= results["Random Sampling"].summary().mean * 1.2

    # These queries are genuinely selective: their true cardinalities are tiny
    # compared to the tables they touch.
    truths = np.array([q.cardinality for q in zero_tuple_queries], dtype=float)
    table_sizes = np.array(
        [
            scenario.database.table(q.query.tables[0]).num_rows
            for q in zero_tuple_queries
        ],
        dtype=float,
    )
    assert np.median(truths / table_sizes) < 0.05
