"""Serve estimation traffic through the concurrency-safe front-end.

Walks the full deployment story of the paper's Section 5 discussion:

1. train an MSCN model,
2. wrap it in an :class:`EstimationService` with a random-sampling fallback,
3. serve repeat-heavy traffic from many threads — repeated queries hit the
   LRU result cache, concurrent misses coalesce into shared fused passes,
4. watch out-of-distribution queries (more joins than the training range)
   get routed to the traditional estimator,
5. publish a model trained with another seed to a :class:`ModelRegistry`
   and hot-swap to it without stopping traffic.

Run with::

    PYTHONPATH=src python examples/serving_walkthrough.py
"""

from __future__ import annotations

import tempfile
import threading
from pathlib import Path

from repro import MSCNConfig, MSCNEstimator, generate_imdb, SyntheticIMDbConfig
from repro.db.sampling import MaterializedSamples
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.serving import EstimationService, ModelRegistry, ServiceConfig
from repro.workload.generator import QueryGenerator, WorkloadConfig
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


def main() -> None:
    database = generate_imdb(
        SyntheticIMDbConfig(num_titles=3000, num_companies=400, num_persons=5000,
                            num_keywords=1000, seed=3)
    )
    samples = MaterializedSamples(database, sample_size=100, seed=3)
    training = QueryGenerator(
        database, WorkloadConfig(num_queries=800, max_joins=2, seed=1)
    ).generate()

    print("Training an MSCN model ...")
    config = MSCNConfig(hidden_units=32, epochs=10, batch_size=128, num_samples=100, seed=3)
    model = MSCNEstimator(database, config, samples=samples)
    model.fit(training)

    fallback = RandomSamplingEstimator(database, samples)
    service_config = ServiceConfig(max_joins=2)

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "models", database)

        with EstimationService(model, fallback=fallback,
                               config=service_config) as service:
            # --- repeat-heavy traffic from concurrent threads -------------
            traffic = [labelled.query for labelled in training[:200]]

            def optimizer_thread(slot: int) -> None:
                # Each "optimizer" costs an overlapping slice of the workload,
                # re-costing some queries — exactly the repetitive traffic an
                # enumeration produces.
                for repeat in range(3):
                    chunk = traffic[slot * 20 : slot * 20 + 60]
                    service.estimate_many(chunk)

            threads = [threading.Thread(target=optimizer_thread, args=(slot,))
                       for slot in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            print("\nAfter concurrent repeat traffic:")
            print(f"  {service.stats().describe()}")

            # --- join-count-routed fallback ------------------------------
            scale = generate_scale_workload(
                database, ScaleWorkloadConfig(queries_per_join_count=10, max_joins=4,
                                              seed=17)
            )
            out_of_distribution = [q.query for q in scale if q.num_joins >= 3]
            before = service.stats().fallback_queries
            service.estimate_many(out_of_distribution)
            routed = service.stats().fallback_queries - before
            print(f"\nOut-of-distribution traffic: {routed}/{len(out_of_distribution)} "
                  f"queries routed to {fallback.name}")

            # --- hot-swap under load --------------------------------------
            retrained = MSCNEstimator(database, config.replace(seed=4), samples=samples)
            retrained.fit(training)
            registry.publish("mscn", retrained)
            print(f"\nPublished a seed-4 model as version {registry.current_version('mscn')}")
            probe = traffic[0]
            before_swap = service.estimate(probe)
            service.swap_model(registry.load("mscn"))
            after_swap = service.estimate(probe)
            print(f"Hot-swapped to the registry model: probe estimate "
                  f"{before_swap:.1f} (seed 3) -> {after_swap:.1f} "
                  f"(seed 4), cache was invalidated atomically")
            print(f"  {service.stats().describe()}")


if __name__ == "__main__":
    main()
