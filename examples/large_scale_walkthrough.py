"""Train a cardinality estimator on a million-row snapshot.

Walks the large-scale tier end to end:

1. generate ``scale="large"`` retail — streaming chunked emission keeps the
   per-chunk intermediates (not the finished table) as the memory bound,
2. inspect resident size: every table reports ``nbytes``, the database
   ``memory_bytes()``,
3. label a training workload with the *sampled* truth oracle — each table is
   reduced to a bounded row sample, observed join counts are multiplicity
   corrected, and every sampled label carries confidence bounds,
4. sanity-check the bounds against exact execution on a few queries,
5. train a miniature MSCN on the sampled labels and evaluate it.

Run with::

    PYTHONPATH=src python examples/large_scale_walkthrough.py
"""

from __future__ import annotations

import time

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets import get_dataset
from repro.db.executor import CardinalityExecutor
from repro.db.sampled import SampledCardinalityExecutor
from repro.db.sampling import MaterializedSamples
from repro.evaluation.runner import evaluate_estimator
from repro.evaluation.scenarios import format_bytes
from repro.workload.generator import QueryGenerator, WorkloadConfig


def main() -> None:
    spec = get_dataset("retail")
    print(f"== 1. generate retail at its named scale tiers {spec.tier_names()} ==")
    started = time.perf_counter()
    database = spec.generate(scale="large", seed=7)
    print(
        f"scale='large' (x{spec.resolve_scale('large'):.0f}) generated in "
        f"{time.perf_counter() - started:.1f}s"
    )

    print("\n== 2. resident size per table ==")
    for name in database.table_names:
        table = database.table(name)
        print(f"  {name:<10} {table.num_rows:>9} rows  {format_bytes(table.nbytes):>9}")
    print(f"  total column storage: {format_bytes(database.memory_bytes())}")

    print("\n== 3. sampled truth labeling with confidence bounds ==")
    started = time.perf_counter()
    training = QueryGenerator(
        database,
        WorkloadConfig(
            num_queries=200,
            max_joins=2,
            seed=23,
            truth_mode="auto",          # sample only when referenced rows exceed...
            truth_row_budget=500_000,   # ...this budget; small queries stay exact
            truth_sample_rows=100_000,  # per-table row budget of the sampled oracle
        ),
    ).generate()
    elapsed = time.perf_counter() - started
    sampled = [entry for entry in training if entry.truth_mode == "sampled"]
    print(
        f"labelled {len(training)} queries in {elapsed:.1f}s "
        f"({len(sampled)} sampled, {len(training) - len(sampled)} exact)"
    )
    example = max(sampled, key=lambda entry: entry.cardinality)
    lower, upper = example.bounds
    print(
        f"widest sampled label: {example.cardinality} "
        f"with {100 * 0.95:.0f}% bounds [{lower:.0f}, {upper:.0f}]"
    )

    print("\n== 4. spot-check bounds against exact execution ==")
    exact = CardinalityExecutor(database)
    oracle = SampledCardinalityExecutor(database, sample_rows=100_000, seed=23)
    covered = 0
    for entry in sampled[:5]:
        truth = exact.execute(entry.query)
        result = oracle.execute(entry.query)
        covered += result.covers(truth)
        print(
            f"  exact={truth:>8}  sampled={result.label:>8}  "
            f"bounds=[{result.lower:.0f}, {result.upper:.0f}]  "
            f"covered={result.covers(truth)}"
        )
    print(f"{covered}/5 spot-checked intervals covered the exact count")

    print("\n== 5. train MSCN on the sampled labels ==")
    started = time.perf_counter()
    samples = MaterializedSamples(database, sample_size=50, seed=7)
    estimator = MSCNEstimator(
        database,
        MSCNConfig(hidden_units=32, epochs=10, batch_size=64, num_samples=50, seed=13),
        samples=samples,
    )
    estimator.fit(training)
    evaluation = QueryGenerator(
        database,
        WorkloadConfig(
            num_queries=80,
            max_joins=2,
            seed=31,
            truth_mode="sampled",
            truth_sample_rows=100_000,
        ),
    ).generate()
    summary = evaluate_estimator(estimator, evaluation).summary()
    print(
        f"trained + evaluated in {time.perf_counter() - started:.1f}s: "
        f"median q-error {summary.median:.2f}, 95th {summary.percentile_95:.2f} "
        f"on {len(evaluation)} queries"
    )


if __name__ == "__main__":
    main()
