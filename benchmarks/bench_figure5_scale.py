"""Figure 5: generalization to queries with more joins than seen in training.

MSCN is trained on 0-2-join queries only; the *scale* workload contains 0-4
joins.  The paper shows the error growing with the number of unseen joins and
uses PostgreSQL as the reference point.  This benchmark reports the same
per-join-count breakdown for MSCN and PostgreSQL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import PostgresEstimator
from repro.evaluation.reporting import format_join_breakdown, format_summary_table
from repro.evaluation.runner import evaluate_estimator, evaluate_estimators
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


@pytest.fixture(scope="module")
def scale_workload(scenario):
    config = ScaleWorkloadConfig(
        queries_per_join_count=scenario.config.scale_queries_per_join_count, max_joins=4, seed=103
    )
    return generate_scale_workload(scenario.database, config)


def test_figure5_generalization_to_more_joins(
    scenario, mscn_config, scale_workload, write_result, benchmark
):
    mscn = scenario.trained_mscn(mscn_config)
    estimators = [PostgresEstimator(scenario.database), mscn]

    hits_before = mscn.samples.bitmap_cache_hits

    def run():
        return evaluate_estimators(estimators, scale_workload)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    # MSCN featurizes through the shared bitmap cache; repeated (table,
    # predicate-set) probes across the scale workload are evaluated once.
    cache_hits = mscn.samples.bitmap_cache_hits - hits_before

    lines = ["95th percentile q-error by join count (paper Figure 5):"]
    per_join_p95 = {}
    for name, result in results.items():
        per_join_p95[name] = {}
        for join_count, summary in result.summary_by_joins().items():
            per_join_p95[name][join_count] = summary.percentile_95
            lines.append(f"  {name:<24} joins={join_count}  p95={summary.percentile_95:10.2f}")
    report = (
        format_summary_table(
            {name: result.summary() for name, result in results.items()},
            title="Estimation errors on the scale workload (0-4 joins)",
        )
        + "\n\n"
        + "\n".join(lines)
        + "\n\n"
        + format_join_breakdown(results, title="Signed error ratio percentiles by join count")
        + "\n\n"
        + f"bitmap cache: {cache_hits} probe hits while featurizing the scale workload "
        + f"({mscn.samples.bitmap_cache_size} distinct probes cached)"
    )
    write_result("figure5_scale_generalization", report)
    assert cache_hits > 0

    # Shape checks: the model was trained on 0-2 joins, so the error on the
    # unseen 3-4-join strata is clearly worse than on base-table queries
    # (paper: p95 grows from 7.7 at two joins to 38.6 at three and 2397 at
    # four), and 4-join queries whose cardinalities exceed the training range
    # are systematically under-estimated (paper Section 4.4).  Individual
    # strata contain only a few dozen queries here, so adjacent join counts
    # are not required to be monotone.
    mscn_name = [name for name in results if name.startswith("MSCN")][0]
    mscn_p95 = per_join_p95[mscn_name]
    assert max(mscn_p95[3], mscn_p95[4]) > mscn_p95[0]
    four_join_median_ratio = results[mscn_name].signed_percentiles_by_joins(
        percentiles=(50.0,)
    )[4][50.0]
    assert four_join_median_ratio < 1.0


def test_figure5_trained_join_counts_remain_accurate(
    scenario, mscn_config, scale_workload, benchmark
):
    """On the 0-2-join strata (seen during training) MSCN stays well-behaved."""
    mscn = scenario.trained_mscn(mscn_config)
    seen_strata = [q for q in scale_workload if q.num_joins <= 2]

    def run():
        return evaluate_estimator(mscn, seen_strata)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.summary().median < 5.0
    assert np.isfinite(result.q_errors).all()
