"""End-to-end acceptance per registered dataset.

Each dataset must survive the full pipeline the IMDb schema already
exercises: generate -> label a workload -> train MSCN -> answer through the
fused inference engine -> answer through the serving stack, with serving
results agreeing with the estimator's direct answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.core.model import forward
from repro.datasets import registered_datasets
from repro.db.sampling import MaterializedSamples
from repro.serving import EstimationService, ServiceConfig
from repro.workload.generator import generate_training_workload

DATASET_NAMES = tuple(spec.name for spec in registered_datasets())


@pytest.fixture(scope="module", params=DATASET_NAMES)
def trained_scenario(request):
    spec = next(s for s in registered_datasets() if s.name == request.param)
    database = spec.generate(scale=0.04, seed=9)
    samples = MaterializedSamples(database, sample_size=25, seed=9)
    workload = generate_training_workload(spec, database, num_queries=90, seed=17)
    config = MSCNConfig(hidden_units=16, epochs=3, batch_size=32, num_samples=25, seed=11)
    estimator = MSCNEstimator(database, config, samples=samples)
    estimator.fit(workload)
    return spec, estimator, workload


class TestTrainServeRoundTrip:
    def test_fused_engine_answers_the_workload(self, trained_scenario):
        spec, estimator, workload = trained_scenario
        queries = [labelled.query for labelled in workload]
        estimates = estimator.estimate_many(queries)
        assert estimates.shape == (len(queries),)
        assert np.isfinite(estimates).all()
        assert (estimates >= 1.0).all()

    def test_engine_matches_model_forward(self, trained_scenario):
        spec, estimator, workload = trained_scenario
        queries = [labelled.query for labelled in workload[:40]]
        fused = estimator.estimate_many(queries)
        normalized = forward(
            estimator.featurizer.featurize_ragged(queries), estimator._model.layers
        )
        reference = estimator._normalizer.denormalize(normalized[:, 0].astype(np.float64))
        np.testing.assert_allclose(fused, reference, rtol=1e-4)

    def test_serving_round_trip_matches_estimator(self, trained_scenario):
        spec, estimator, workload = trained_scenario
        queries = [labelled.query for labelled in workload[:30]]
        direct = estimator.estimate_many(queries)
        service = EstimationService(estimator, config=ServiceConfig(cache_capacity=64))
        try:
            served_cold = service.estimate_many(queries)
            served_warm = service.estimate_many(queries)  # cache hits
        finally:
            service.close()
        np.testing.assert_allclose(served_cold, direct, rtol=1e-6)
        np.testing.assert_array_equal(served_warm, served_cold)
        stats = service.stats()
        assert stats.cache_hits >= len(queries)

    def test_model_survives_persistence_round_trip(self, trained_scenario, tmp_path):
        spec, estimator, workload = trained_scenario
        queries = [labelled.query for labelled in workload[:10]]
        expected = estimator.estimate_many(queries)
        directory = tmp_path / spec.name
        estimator.save(directory)
        reloaded = MSCNEstimator.load(directory, estimator.database)
        np.testing.assert_allclose(reloaded.estimate_many(queries), expected, rtol=1e-6)
