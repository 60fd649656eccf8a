"""Every estimator in the repository honours one contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.estimators.base import CardinalityEstimator
from repro.estimators.ibjs import IndexBasedJoinSamplingEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.serving import EstimationService, ServiceConfig

CONSTRUCTORS = {
    "PostgresEstimator": lambda db, samples, config: PostgresEstimator(db),
    "RandomSamplingEstimator": lambda db, samples, config: RandomSamplingEstimator(db, samples),
    "IndexBasedJoinSamplingEstimator": (
        lambda db, samples, config: IndexBasedJoinSamplingEstimator(db, samples)
    ),
    "TrueCardinalityEstimator": lambda db, samples, config: TrueCardinalityEstimator(db),
    "MSCNEstimator": lambda db, samples, config: MSCNEstimator(db, config, samples=samples),
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



#: Every estimator the behavioural contract is checked on: the five above and
#: the service front-end, which serves a trained MSCN and routes 2-join
#: queries to a PostgreSQL-style fallback.
BEHAVIOURAL_CASES = sorted(CONSTRUCTORS) + ["EstimationService"]

#: Relative agreement of one estimator's answers to the same query asked in
#: different batches.
FLOAT32_RTOL = 1e-5


@pytest.fixture(scope="module")
def trained_mscn(tiny_database, tiny_samples, tiny_workload):
    config = MSCNConfig(hidden_units=16, epochs=2, batch_size=32,
                        num_samples=tiny_samples.sample_size, seed=31)
    model = MSCNEstimator(tiny_database, config, samples=tiny_samples)
    model.fit(tiny_workload)
    return model


@pytest.fixture
def build(tiny_database, tiny_samples, trained_mscn):
    """``build(name)`` returns a fresh estimator ready to answer queries."""
    services = []

    def make(name):
        if name == "MSCNEstimator":
            return trained_mscn
        if name == "EstimationService":
            service = EstimationService(
                trained_mscn,
                fallback=PostgresEstimator(tiny_database),
                config=ServiceConfig(max_joins=1),
            )
            services.append(service)
            return service
        return CONSTRUCTORS[name](tiny_database, tiny_samples, trained_mscn.config)

    yield make
    for service in services:
        service.close()


@pytest.fixture(scope="module")
def contract_queries(tiny_workload):
    """Five queries of each join count the tiny workload holds (0-2)."""
    queries = []
    for joins in range(3):
        queries += [q.query for q in tiny_workload if q.num_joins == joins][:5]
    assert len(queries) == 15
    return queries


@pytest.mark.parametrize("name", BEHAVIOURAL_CASES)
def test_estimates_are_finite_and_at_least_one(name, build, contract_queries):
    estimates = build(name).estimate_many(contract_queries)
    assert estimates.dtype == np.float64
    assert estimates.shape == (len(contract_queries),)
    assert np.isfinite(estimates).all()
    assert (estimates >= 1.0).all()


@pytest.mark.parametrize("name", BEHAVIOURAL_CASES)
def test_scalar_and_batched_estimates_agree(name, build, contract_queries):
    """Each path runs on a fresh estimator, so a seeded sampler starts from
    the same state on both.  The tolerance is MSCN's: its float32 forward
    pass may differ in the last bits between batch compositions."""
    single = [build(name).estimate(query) for query in contract_queries]
    batched = build(name).estimate_many(contract_queries)
    np.testing.assert_allclose(single, batched, rtol=FLOAT32_RTOL)


@pytest.mark.parametrize("name", BEHAVIOURAL_CASES)
def test_no_queries_give_an_empty_float_array(name, build):
    estimates = build(name).estimate_many([])
    assert estimates.shape == (0,)
    assert estimates.dtype == np.float64


@pytest.mark.parametrize("name", BEHAVIOURAL_CASES)
def test_subplan_estimates_cover_every_connected_subplan(name, build, contract_queries):
    query = contract_queries[-1]
    assert query.num_joins == 2
    subplans = build(name).estimate_subplans(query)
    assert list(subplans) == list(query.connected_table_subsets())
    assert frozenset(query.tables) in subplans
    expected = build(name).estimate_many(query.connected_subqueries())
    np.testing.assert_allclose(list(subplans.values()), expected, rtol=FLOAT32_RTOL)
