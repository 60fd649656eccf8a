"""Every estimator in the repository honours one contract."""

from __future__ import annotations

import pytest

from repro.core.config import MSCNConfig
from repro.core.ensemble import EnsembleMSCNEstimator
from repro.core.estimator import MSCNEstimator
from repro.estimators.base import CardinalityEstimator
from repro.estimators.ibjs import IndexBasedJoinSamplingEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.serving import EstimationService

CONSTRUCTORS = {
    "PostgresEstimator": lambda db, samples, config: PostgresEstimator(db),
    "RandomSamplingEstimator": lambda db, samples, config: RandomSamplingEstimator(db, samples),
    "IndexBasedJoinSamplingEstimator": (
        lambda db, samples, config: IndexBasedJoinSamplingEstimator(db, samples)
    ),
    "TrueCardinalityEstimator": lambda db, samples, config: TrueCardinalityEstimator(db),
    "MSCNEstimator": lambda db, samples, config: MSCNEstimator(db, config, samples=samples),
    "EnsembleMSCNEstimator": (
        lambda db, samples, config: EnsembleMSCNEstimator(db, config, samples=samples)
    ),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_every_estimator_is_a_cardinality_estimator(name, tiny_database, tiny_samples):
    config = MSCNConfig(num_samples=tiny_samples.sample_size)
    estimator = CONSTRUCTORS[name](tiny_database, tiny_samples, config)
    assert type(estimator).__name__ == name
    assert isinstance(estimator, CardinalityEstimator)


def test_the_estimation_service_is_a_cardinality_estimator(tiny_database, tiny_samples):
    model = MSCNEstimator(tiny_database, MSCNConfig(num_samples=tiny_samples.sample_size),
                          samples=tiny_samples)
    with EstimationService(model) as service:
        assert isinstance(service, CardinalityEstimator)

