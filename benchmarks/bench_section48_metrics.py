"""Section 4.8: optimization metrics — mean q-error vs MSE vs geometric mean.

The paper explores three training objectives and concludes that optimizing
the mean q-error directly yields the best evaluation q-errors, with
mean-squared error (on the normalized labels) and the geometric-mean q-error
as less reliable alternatives.  This benchmark trains one model per objective
(at reduced epochs) and compares their q-error distributions on the synthetic
workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LossKind
from repro.evaluation.reporting import format_summary_table
from repro.evaluation.runner import evaluate_estimator

LOSSES = (LossKind.Q_ERROR, LossKind.MSE, LossKind.GEOMETRIC_Q_ERROR)

_REDUCED_EPOCHS = 30


@pytest.fixture(scope="module")
def loss_results(scenario, mscn_config, synthetic_workload):
    results = {}
    for loss in LOSSES:
        estimator = scenario.trained_mscn(mscn_config.replace(loss=loss, epochs=_REDUCED_EPOCHS))
        evaluation = evaluate_estimator(estimator, synthetic_workload)
        results[loss.value] = evaluation
    return results


def test_section48_optimization_metrics(loss_results, write_result, benchmark):
    def build_report() -> str:
        return format_summary_table(
            {name: result.summary() for name, result in loss_results.items()},
            title=(
                "Q-errors on the synthetic workload per training objective "
                f"({_REDUCED_EPOCHS} epochs; paper Section 4.8)"
            ),
        )

    report = benchmark(build_report)
    write_result("section48_optimization_metrics", report)

    summaries = {name: result.summary() for name, result in loss_results.items()}
    # All objectives produce finite, usable estimators.
    for summary in summaries.values():
        assert np.isfinite(summary.mean)
        assert summary.median >= 1.0
    # Shape check: since evaluation uses the q-error metric, optimizing the
    # q-error directly is not worse than optimizing MSE by a large margin
    # (the paper found it to be the most reliable objective).  The tolerance
    # absorbs training noise at the reduced epoch budget.
    assert summaries[LossKind.Q_ERROR.value].mean <= summaries[LossKind.MSE.value].mean * 2.5
