"""Figure 6: convergence of the validation mean q-error with training epochs.

The paper plots the mean q-error on the 10% validation split after every
epoch: it drops steeply during the first epochs and converges to roughly 3
within fewer than 75 passes.  The trained (cached) bitmaps model records the
same series during fitting; this benchmark reports it and measures the cost
of a single additional training epoch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.reporting import format_convergence_series


def test_figure6_validation_convergence(scenario, mscn_config, write_result, benchmark):
    estimator = scenario.trained_mscn(mscn_config)
    history = estimator.training_result.validation_q_error_history
    assert history, "training must record a per-epoch validation series"

    report = benchmark(lambda: format_convergence_series(history))
    summary = (
        f"\nfirst epoch: {history[0]:.2f}   best: {min(history):.2f}   "
        f"final: {history[-1]:.2f}   epochs: {len(history)}"
    )
    write_result("figure6_convergence", report + summary)

    # Shape checks mirroring the paper's observation: the error decreases
    # substantially from the first epoch and the final error is close to the
    # best seen (no catastrophic divergence / overfitting within the budget).
    assert history[-1] < history[0]
    assert history[-1] <= min(history) * 1.5
    assert np.isfinite(history).all()


def test_figure6_single_epoch_training_cost(scenario, mscn_config, benchmark):
    """Wall-clock cost of one additional epoch over part of the training set.

    The shared (cached) model is snapshotted and restored afterwards so this
    measurement does not perturb the other benchmarks.
    """
    estimator = scenario.trained_mscn(mscn_config)
    trainer = estimator._trainer
    snapshot = estimator._model.state_dict()
    cardinalities = np.array(
        [q.cardinality for q in scenario.training_workload[:2000]], dtype=np.float64
    )
    dataset = estimator.featurizer.featurize_ragged(
        [q.query for q in scenario.training_workload[:2000]], cardinalities=cardinalities
    )

    def one_epoch():
        return trainer.train(dataset, cardinalities, epochs=1)

    try:
        result = benchmark.pedantic(one_epoch, rounds=1, iterations=1)
        assert result.epochs_run == 1
    finally:
        estimator._model.load_state_dict(snapshot)
