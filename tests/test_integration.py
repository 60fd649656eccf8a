"""End-to-end integration tests across all subsystems.

These exercise the same pipeline the benchmarks use, at a miniature scale:
generate a correlated database, label workloads with the executor, train MSCN
with sample bitmaps, compare against the baselines and check the paper's
qualitative claims hold directionally.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.db.sql import load_workload, save_workload
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.evaluation.metrics import q_errors
from repro.evaluation.runner import evaluate_estimator
from repro.workload.generator import QueryGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def trained_mscn(tiny_database, tiny_samples, tiny_workload):
    config = MSCNConfig(
        hidden_units=32,
        epochs=40,
        batch_size=32,
        num_samples=50,
        variant=FeaturizationVariant.BITMAPS,
        seed=5,
    )
    estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
    estimator.fit(tiny_workload)
    return estimator


@pytest.fixture(scope="module")
def evaluation_workload(tiny_database):
    generator = QueryGenerator(
        tiny_database, WorkloadConfig(num_queries=80, max_joins=2, seed=77)
    )
    return generator.generate()


class TestEndToEnd:
    def test_mscn_beats_an_uninformed_constant_guess(self, trained_mscn, evaluation_workload):
        queries = [q.query for q in evaluation_workload]
        truths = np.array([q.cardinality for q in evaluation_workload], dtype=float)
        mscn_errors = q_errors(trained_mscn.estimate_many(queries), truths)
        constant = np.full_like(truths, np.median(truths))
        constant_errors = q_errors(constant, truths)
        assert np.mean(mscn_errors) < np.mean(constant_errors)
        assert np.median(mscn_errors) < np.median(constant_errors)

    def test_mscn_validation_error_converges(self, trained_mscn):
        history = trained_mscn.training_result.validation_q_error_history
        # Figure 6: the validation mean q-error drops substantially from the
        # first epochs and stabilises.
        assert history[-1] < history[0]
        assert history[-1] < 0.6 * max(history[:3])

    def test_mscn_tail_errors_are_in_the_same_regime_as_random_sampling(
        self, trained_mscn, tiny_database, tiny_samples, evaluation_workload
    ):
        """Sanity bound on the tail of the error distribution.

        The paper's quantitative claim (MSCN beats sampling at the tail) needs
        thousands of training queries and is demonstrated by the benchmark
        harness; at this miniature scale (120 training queries) we only check
        that the learned estimator stays within a small constant factor of
        Random Sampling's tail error rather than degenerating.
        """
        rs = RandomSamplingEstimator(tiny_database, tiny_samples)
        mscn_result = evaluate_estimator(trained_mscn, evaluation_workload)
        rs_result = evaluate_estimator(rs, evaluation_workload)
        mscn_p95 = mscn_result.summary().percentile_95
        rs_p95 = rs_result.summary().percentile_95
        assert mscn_p95 <= rs_p95 * 5.0

    def test_all_estimators_produce_valid_estimates(
        self, trained_mscn, tiny_database, tiny_samples, evaluation_workload
    ):
        estimators = [
            trained_mscn,
            PostgresEstimator(tiny_database, analyze_sample_rows=500),
            RandomSamplingEstimator(tiny_database, tiny_samples),
        ]
        queries = [q.query for q in evaluation_workload]
        for estimator in estimators:
            estimates = estimator.estimate_many(queries)
            assert np.isfinite(estimates).all()
            assert (estimates >= 1.0).all()

    def test_prediction_latency_is_milliseconds_per_query(self, trained_mscn, evaluation_workload):
        queries = [q.query for q in evaluation_workload]
        start = time.perf_counter()
        trained_mscn.estimate_many(queries)
        per_query_ms = 1000.0 * (time.perf_counter() - start) / len(queries)
        # Section 4.7: prediction takes on the order of a few milliseconds.
        assert per_query_ms < 100.0


class TestWorkloadPersistenceRoundtrip:
    def test_saved_workload_trains_an_equivalent_estimator(
        self, tiny_database, tiny_samples, tiny_workload, tmp_path
    ):
        path = tmp_path / "train.csv"
        save_workload([(q.query, q.cardinality) for q in tiny_workload], path)
        loaded = load_workload(path)
        assert len(loaded) == len(tiny_workload)
        from repro.workload.generator import LabelledQuery

        relabelled = [LabelledQuery(query=q, cardinality=c) for q, c in loaded]
        config = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, num_samples=50, seed=9)
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        result = estimator.fit(relabelled)
        assert result.epochs_run == 3
