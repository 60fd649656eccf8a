"""Tests of truth-oracle routing in workload labeling.

``truth_mode`` decides which oracle labels each candidate query: the exact
executor, the sampled executor with confidence bounds, or an
automatic switch keyed on the total rows the query's tables hold.
"""

from __future__ import annotations

import pytest

from repro.db.executor import CardinalityExecutor
from repro.workload.generator import LabelledQuery, QueryGenerator, WorkloadConfig
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


class TestConfigValidation:
    def test_unknown_truth_mode_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(truth_mode="guess")

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"truth_row_budget": 0},
            {"truth_sample_rows": 0},
        ),
    )
    def test_invalid_truth_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)

    def test_labelled_query_still_unpacks_as_pair(self, tiny_workload):
        query, cardinality = tiny_workload[0]
        assert query is tiny_workload[0].query
        assert cardinality == tiny_workload[0].cardinality


class TestExactMode:
    def test_exact_labels_have_no_bounds(self, tiny_database):
        config = WorkloadConfig(num_queries=15, max_joins=1, seed=3, truth_mode="exact")
        workload = QueryGenerator(tiny_database, config).generate()
        assert workload
        for entry in workload:
            assert entry.truth_mode == "exact"
            assert entry.bounds is None


class TestSampledMode:
    def test_sampled_labels_carry_bounds(self, tiny_database):
        config = WorkloadConfig(
            num_queries=25,
            max_joins=2,
            seed=3,
            truth_mode="sampled",
            truth_sample_rows=500,
        )
        workload = QueryGenerator(tiny_database, config).generate()
        sampled = [entry for entry in workload if entry.truth_mode == "sampled"]
        assert sampled, "some tables exceed the 500-row budget, so sampling must occur"
        for entry in sampled:
            lower, upper = entry.bounds
            assert lower <= entry.cardinality <= upper
        for entry in workload:
            if entry.truth_mode == "exact":
                assert entry.bounds is None

    def test_full_budget_degrades_to_exact(self, tiny_database):
        config = WorkloadConfig(
            num_queries=10,
            max_joins=1,
            seed=3,
            truth_mode="sampled",
            truth_sample_rows=10**9,
        )
        workload = QueryGenerator(tiny_database, config).generate()
        exact = CardinalityExecutor(tiny_database)
        for entry in workload:
            assert entry.truth_mode == "exact"
            assert entry.bounds is None
            assert entry.cardinality == exact.execute(entry.query)


class TestAutoMode:
    def test_small_database_stays_exact(self, tiny_database):
        # Default 5M-row budget dwarfs the tiny database: nothing samples.
        config = WorkloadConfig(num_queries=10, max_joins=1, seed=3, truth_mode="auto")
        workload = QueryGenerator(tiny_database, config).generate()
        for entry in workload:
            assert entry.truth_mode == "exact"

    def test_tight_budget_forces_sampling(self, tiny_database):
        config = WorkloadConfig(
            num_queries=20,
            max_joins=2,
            seed=3,
            truth_mode="auto",
            truth_row_budget=1,
            truth_sample_rows=500,
        )
        workload = QueryGenerator(tiny_database, config).generate()
        modes = {entry.truth_mode for entry in workload}
        assert "sampled" in modes

    def test_budget_counts_only_referenced_tables(self, tiny_database):
        """Queries over small tables stay exact even under a tight budget."""
        small_table = min(
            tiny_database.table_names, key=lambda n: tiny_database.table(n).num_rows
        )
        budget = tiny_database.table(small_table).num_rows + 1
        config = WorkloadConfig(
            num_queries=30,
            max_joins=2,
            seed=3,
            truth_mode="auto",
            truth_row_budget=budget,
            truth_sample_rows=500,
        )
        workload = QueryGenerator(tiny_database, config).generate()
        for entry in workload:
            referenced = sum(
                tiny_database.table(t).num_rows for t in entry.query.tables
            )
            if referenced <= budget:
                assert entry.truth_mode == "exact"


class TestScaleWorkloadForwarding:
    def test_truth_knobs_reach_strata(self, tiny_database):
        workload = generate_scale_workload(
            tiny_database,
            ScaleWorkloadConfig(queries_per_join_count=8, max_joins=1, seed=5),
            truth_mode="sampled",
            truth_sample_rows=500,
        )
        assert any(entry.truth_mode == "sampled" for entry in workload)
        assert all(isinstance(entry, LabelledQuery) for entry in workload)
