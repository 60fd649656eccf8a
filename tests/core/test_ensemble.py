"""Tests of the deep-ensemble uncertainty extension (paper Section 5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.ensemble import EnsembleMSCNEstimator
from repro.evaluation.metrics import q_errors
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


@pytest.fixture(scope="module")
def trained_ensemble(tiny_database, tiny_samples, tiny_workload):
    config = MSCNConfig(hidden_units=24, epochs=15, batch_size=32, num_samples=50, seed=31)
    ensemble = EnsembleMSCNEstimator(
        tiny_database, config, samples=tiny_samples, num_members=3
    )
    ensemble.fit(tiny_workload)
    return ensemble


class _FixedMember:
    """A member whose forward pass returns fixed estimates."""

    def __init__(self, *estimates: float):
        self.estimates = np.array(estimates, dtype=np.float64)

    def estimate_featurized(self, dataset):
        return self.estimates


def _combine(*members: _FixedMember):
    ensemble = EnsembleMSCNEstimator.__new__(EnsembleMSCNEstimator)
    ensemble.members = list(members)
    return ensemble.estimate_featurized_with_uncertainty(dataset=None)


class TestSpread:
    def test_spread_of_identical_members_is_one(self):
        cardinalities, spreads, _ = _combine(*(_FixedMember(10.0) for _ in range(3)))
        assert spreads[0] == pytest.approx(1.0)
        assert cardinalities[0] == pytest.approx(10.0)

    def test_spread_is_max_pairwise_factor(self):
        cardinalities, spreads, per_member = _combine(
            _FixedMember(5.0), _FixedMember(50.0), _FixedMember(10.0)
        )
        assert spreads[0] == pytest.approx(10.0)
        assert cardinalities[0] == pytest.approx((5.0 * 50.0 * 10.0) ** (1 / 3))
        np.testing.assert_array_equal(per_member[:, 0], [5.0, 50.0, 10.0])


class TestEnsembleEstimator:
    def test_requires_at_least_two_members(self, tiny_database, tiny_samples):
        with pytest.raises(ValueError):
            EnsembleMSCNEstimator(tiny_database, MSCNConfig(num_samples=50),
                                  samples=tiny_samples, num_members=1)

    def test_members_are_differently_initialized(self, trained_ensemble):
        seeds = {member.config.seed for member in trained_ensemble.members}
        assert len(seeds) == len(trained_ensemble.members)

    def test_estimates_are_positive_and_match_member_range(self, trained_ensemble, tiny_workload):
        queries = [q.query for q in tiny_workload[:15]]
        cardinalities, _, per_member = trained_ensemble.estimate_featurized_with_uncertainty(
            trained_ensemble.serving_dataset(queries)
        )
        assert (cardinalities >= 1.0).all()
        assert (per_member.min(axis=0) <= cardinalities + 1e-6).all()
        assert (cardinalities <= per_member.max(axis=0) + 1e-6).all()

    def test_scalar_and_batched_estimates_agree(self, trained_ensemble, tiny_workload):
        query = tiny_workload[0].query
        single = trained_ensemble.estimate(query)
        batched = trained_ensemble.estimate_many([query])[0]
        assert single == pytest.approx(batched, rel=1e-9)

    def test_ensemble_is_no_worse_than_its_worst_member(self, trained_ensemble, tiny_workload):
        queries = [q.query for q in tiny_workload[:60]]
        truths = np.array([q.cardinality for q in tiny_workload[:60]], dtype=float)
        ensemble_mean = float(np.mean(q_errors(trained_ensemble.estimate_many(queries), truths)))
        member_means = [
            float(np.mean(q_errors(member.estimate_many(queries), truths)))
            for member in trained_ensemble.members
        ]
        assert ensemble_mean <= max(member_means) + 1e-9

    def test_spread_is_a_well_formed_uncertainty_signal(
        self, trained_ensemble, tiny_database, tiny_workload
    ):
        """Spreads are finite factors >= 1 on both in-distribution queries and
        3-4-join queries the members never saw, and the members genuinely
        disagree on at least some queries (otherwise the signal carries no
        information).  Whether out-of-distribution spreads are *larger* is a
        quantitative question that needs the benchmark-scale training budget,
        not this miniature fixture."""
        in_distribution = [q.query for q in tiny_workload[:40]]
        scale = generate_scale_workload(
            tiny_database, ScaleWorkloadConfig(queries_per_join_count=10, max_joins=4, seed=17)
        )
        out_of_distribution = [q.query for q in scale if q.num_joins >= 3]
        _, spreads, _ = trained_ensemble.estimate_featurized_with_uncertainty(
            trained_ensemble.serving_dataset(in_distribution + out_of_distribution)
        )
        assert all(np.isfinite(spread) and spread >= 1.0 for spread in spreads)
        assert max(spreads) > 1.05

    def test_empty_query_list(self, trained_ensemble):
        assert trained_ensemble.estimate_many([]).size == 0

    def test_fit_featurizes_the_workload_exactly_once(
        self, tiny_database, tiny_samples, tiny_workload, monkeypatch
    ):
        """All members share one sample set and compute dtype, so the train
        and validation featurizations are computed once and shared — not once
        per member (the regression was 3x identical featurization work)."""
        from repro.core.featurization import QueryFeaturizer

        calls = {"count": 0}
        original = QueryFeaturizer.featurize_ragged

        def counting(self, *args, **kwargs):
            calls["count"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(QueryFeaturizer, "featurize_ragged", counting)
        config = MSCNConfig(hidden_units=16, epochs=1, batch_size=32, num_samples=50, seed=31)
        ensemble = EnsembleMSCNEstimator(
            tiny_database, config, samples=tiny_samples, num_members=3
        )
        results = ensemble.fit(tiny_workload)
        assert len(results) == 3
        assert calls["count"] == 2  # one train + one validation featurization

    def test_members_train_on_a_shared_validation_split(
        self, tiny_database, tiny_samples, tiny_workload
    ):
        """The one-shot featurization implies one split: every member records
        the same number of validation evaluations over the same held-out set."""
        config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32, num_samples=50, seed=31)
        ensemble = EnsembleMSCNEstimator(
            tiny_database, config, samples=tiny_samples, num_members=2
        )
        results = ensemble.fit(tiny_workload)
        histories = [r.validation_q_error_history for r in results]
        assert all(len(history) == 2 for history in histories)

    def test_estimate_featurized_with_uncertainty_matches_query_path(
        self, trained_ensemble, tiny_workload
    ):
        queries = [q.query for q in tiny_workload[:20]]
        dataset = trained_ensemble.serving_dataset(queries)
        cardinalities, spreads, per_member = (
            trained_ensemble.estimate_featurized_with_uncertainty(dataset)
        )
        assert per_member.shape == (len(trained_ensemble.members), len(queries))
        np.testing.assert_array_equal(cardinalities, trained_ensemble.estimate_many(queries))
        members = np.vstack([m.estimate_many(queries) for m in trained_ensemble.members])
        np.testing.assert_array_equal(per_member, members)
        clamped = np.maximum(members, 1.0)
        np.testing.assert_array_equal(spreads, clamped.max(axis=0) / clamped.min(axis=0))
