"""CI smoke test of the join-order optimizer and plan-quality pipeline.

For every registered dataset this enumerates and costs join plans end to
end: train a miniature MSCN, fan each multi-join evaluation query out into
its connected sub-plans (one batched ``estimate_subplans`` call per query
and estimator), run the DPsize enumerator under MSCN, PostgreSQL-style and
true cardinalities, and re-cost every chosen plan under truth.  Asserted
invariants:

* plan-cost ratios are always >= 1 and driving the enumerator with true
  cardinalities always reproduces the optimal plan (the metric's floor),
* on the planted-correlation workloads, MSCN-driven plans are in aggregate
  no costlier than the independence-assumption heuristic baseline's
  (small tolerance for the miniature training budget),
* the truth oracle's signature memo absorbs the sub-plan overlap across
  estimators (second and third evaluations execute nothing new).

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_plan_quality.py``) from CI next to the other smokes.
"""

from __future__ import annotations

# Pin BLAS threading before numpy loads anywhere: smoke timings must
# measure the repository's own threading tiers, not the BLAS pool's.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import sys
import time
from pathlib import Path

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets import registered_datasets
from repro.db.sampling import MaterializedSamples
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.optimizer import evaluate_plan_quality
from repro.utils.bench import write_bench_json
from repro.workload.generator import (
    generate_evaluation_workload,
    generate_training_workload,
)

RESULTS_DIRECTORY = Path(__file__).parent / "results"

#: Aggregate-cost headroom for the miniature CI training budget.  At smoke
#: scale the independence-assumption baseline is already near-optimal on the
#: shallow (2-3 join) strata, so the guard is "MSCN plans are competitive,
#: never catastrophically misled", not "MSCN strictly wins" — the walkthrough
#: example and the scenario matrix report the full-scale comparison.
MSCN_TOLERANCE = 1.15


def main() -> int:
    specs = registered_datasets()
    assert len(specs) >= 3, "expected at least imdb + retail + forum to be registered"
    started = time.perf_counter()
    plans_enumerated = 0
    cost_ratios: dict[str, float] = {}
    for spec in specs:
        database = spec.generate(scale=0.05, seed=7)
        samples = MaterializedSamples(database, sample_size=40, seed=7)
        training = generate_training_workload(spec, database, num_queries=300, seed=11)
        evaluation = generate_evaluation_workload(spec, database, num_queries=60, seed=23)
        queries = [l.query for l in evaluation if l.query.num_joins >= 2][:25]
        assert queries, f"{spec.name}: evaluation workload has no multi-join queries"

        config = MSCNConfig(hidden_units=24, epochs=12, batch_size=32, num_samples=40, seed=13)
        mscn = MSCNEstimator(database, config, samples=samples)
        mscn.fit(training)
        postgres = PostgresEstimator(database)
        oracle = TrueCardinalityEstimator(database)

        summaries = {
            name: evaluate_plan_quality(estimator, oracle, queries).summary()
            for name, estimator in (
                ("mscn", mscn),
                ("postgres", postgres),
                ("truth", oracle),
            )
        }

        for name, summary in summaries.items():
            assert summary.count == len(queries)
            assert summary.median >= 1.0 and summary.maximum >= 1.0, name
        truth = summaries["truth"]
        assert truth.maximum == 1.0 and truth.fraction_optimal == 1.0, (
            "true cardinalities must reproduce the optimal plan"
        )
        mscn_summary, pg_summary = summaries["mscn"], summaries["postgres"]
        assert (
            mscn_summary.total_chosen_cost
            <= pg_summary.total_chosen_cost * MSCN_TOLERANCE
        ), (
            f"{spec.name}: MSCN-driven plans cost {mscn_summary.total_chosen_cost:.0f}, "
            f"heuristic baseline {pg_summary.total_chosen_cost:.0f}"
        )
        # The oracle answered the truth side of three evaluations (plus its
        # own estimator side); the shared sub-plans must have been executed
        # once, not once per evaluation.
        assert oracle.cache_hits >= 2 * oracle.cache_misses, (
            f"{spec.name}: expected the signature memo to absorb repeated sub-plans"
        )

        plans_enumerated += len(queries)
        cost_ratios[spec.name] = mscn_summary.total_cost_ratio
        print(
            f"  {spec.name}: OK ({len(queries)} plans enumerated; plan-cost ratio "
            f"mscn x{mscn_summary.total_cost_ratio:.3f} (opt {100 * mscn_summary.fraction_optimal:.0f}%) "
            f"vs postgres x{pg_summary.total_cost_ratio:.3f} "
            f"(opt {100 * pg_summary.fraction_optimal:.0f}%); "
            f"{oracle.cache_misses} sub-plans executed, {oracle.cache_hits} memo hits)"
        )
    elapsed = time.perf_counter() - started
    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_plan_quality",
        throughput_qps=plans_enumerated / elapsed if elapsed > 0 else None,
        dtype="float32",
        precision="float32",
        metrics={
            "datasets": len(specs),
            "plans_enumerated": plans_enumerated,
            "total_seconds": elapsed,
            "mscn_total_cost_ratio": cost_ratios,
        },
    )
    print(
        f"plan-quality smoke OK: {len(specs)} datasets enumerated and costed "
        f"in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
