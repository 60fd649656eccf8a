"""Figure 4: contribution of the sampling features (model-variant ablation).

Trains the three MSCN variants — no samples, #samples (qualifying-sample
count), bitmaps — on the same training workload and compares their q-error
distributions on the synthetic workload, split by join count, like the
paper's Figure 4.
"""

from __future__ import annotations

import pytest

from repro.core.config import FeaturizationVariant
from repro.evaluation.reporting import format_join_breakdown, format_summary_table
from repro.evaluation.runner import evaluate_estimator


VARIANTS = (
    FeaturizationVariant.NO_SAMPLES,
    FeaturizationVariant.NUM_SAMPLES,
    FeaturizationVariant.BITMAPS,
)


@pytest.fixture(scope="module")
def variant_results(scenario, mscn_config, synthetic_workload):
    """Evaluation results of the three trained variants (training is cached)."""
    results = {}
    for variant in VARIANTS:
        estimator = scenario.trained_mscn(mscn_config.replace(variant=variant))
        results[estimator.name] = evaluate_estimator(estimator, synthetic_workload)
    return results


def test_figure4_feature_ablation(variant_results, write_result, benchmark):
    def build_report() -> str:
        summary = format_summary_table(
            {name: result.summary() for name, result in variant_results.items()},
            title="MSCN variants on the synthetic workload (paper Figure 4)",
        )
        per_join = format_join_breakdown(
            variant_results, title="Signed error ratio percentiles by join count"
        )
        q_error_by_join = ["95th percentile q-error by join count:"]
        for name, result in variant_results.items():
            for join_count, join_summary in result.summary_by_joins().items():
                q_error_by_join.append(
                    f"  {name:<24} joins={join_count}  p95={join_summary.percentile_95:8.2f}"
                )
        return summary + "\n\n" + per_join + "\n\n" + "\n".join(q_error_by_join)

    report = benchmark(build_report)
    write_result("figure4_feature_ablation", report)

    # Shape check (paper Section 4.3): adding sampling information to the
    # model improves the overall error distribution; the bitmap variant is the
    # best or tied-best of the three.
    means = {name: result.summary().mean for name, result in variant_results.items()}
    no_samples = [v for k, v in means.items() if "no_samples" in k][0]
    bitmaps = [v for k, v in means.items() if "bitmaps" in k][0]
    assert bitmaps <= no_samples * 1.5


def test_figure4_training_cost_per_variant(scenario, mscn_config, write_result, benchmark):
    """Record the (cached) training cost of each variant for Section 4.7."""
    lines = ["Training cost per variant (wall-clock seconds):"]
    for variant in VARIANTS:
        estimator = scenario.trained_mscn(mscn_config.replace(variant=variant))
        result = estimator.training_result
        lines.append(
            f"  {estimator.name:<24} {result.training_seconds:8.1f}s "
            f"for {result.epochs_run} epochs"
        )
    report = "\n".join(lines)
    write_result("figure4_training_costs", report)
    benchmark(
        lambda: [scenario.trained_mscn(mscn_config.replace(variant=v)).name for v in VARIANTS]
    )
