"""Tests of sampled ground-truth labeling with confidence bounds.

The sampled executor trades exactness for a bounded per-table budget; these
tests pin down the contract: exactness when every table fits the budget,
valid and deterministic intervals otherwise, and empirical CI coverage near
the configured confidence on a real workload.  Join fan-out makes the
binomial independence assumption approximate, so the coverage floor carries
slack below the nominal level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.executor import CardinalityExecutor
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.sampled import SampledCardinalityExecutor, normal_quantile


class TestNormalQuantile:
    def test_known_values(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        # Tail branch of the rational approximation.
        assert normal_quantile(0.001) == pytest.approx(-3.090232, abs=1e-5)

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.3, 0.42):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-9)

    @pytest.mark.parametrize("probability", (0.0, 1.0, -0.1, 1.1))
    def test_out_of_range_rejected(self, probability):
        with pytest.raises(ValueError):
            normal_quantile(probability)


class TestExactWhenBudgetCoversTables:
    def test_full_sample_is_exact(self, tiny_database, tiny_workload):
        executor = SampledCardinalityExecutor(
            tiny_database, sample_rows=10**9, seed=1
        )
        for name in tiny_database.table_names:
            assert executor.sampling_fraction(name) == 1.0
        for entry in tiny_workload[:15]:
            result = executor.execute(entry.query)
            assert result.exact
            assert result.label == entry.cardinality
            assert result.lower == result.upper == result.estimate

    def test_unknown_table_fraction_raises(self, tiny_database):
        executor = SampledCardinalityExecutor(tiny_database, sample_rows=10)
        with pytest.raises(KeyError):
            executor.sampling_fraction("missing")


class TestSampledIntervals:
    @pytest.fixture(scope="class")
    def sampled_executor(self, tiny_database):
        return SampledCardinalityExecutor(tiny_database, sample_rows=500, seed=5)

    def test_fractions_and_sample_size(self, tiny_database, sampled_executor):
        for name in tiny_database.table_names:
            table = tiny_database.table(name)
            fraction = sampled_executor.sampling_fraction(name)
            if table.num_rows <= 500:
                assert fraction == 1.0
            else:
                assert fraction == pytest.approx(500 / table.num_rows)
                assert sampled_executor.sampled_database.table(name).num_rows == 500
        assert sampled_executor.sample_bytes() <= tiny_database.memory_bytes()

    def test_interval_shape(self, tiny_workload, sampled_executor):
        saw_sampled = False
        for entry in tiny_workload[:40]:
            result = sampled_executor.execute(entry.query)
            assert result.lower <= result.estimate <= result.upper
            if not result.exact:
                saw_sampled = True
                assert 0.0 < result.inclusion_probability < 1.0
                if result.observed:
                    assert result.lower >= result.observed
                else:
                    assert result.lower == 0.0
        assert saw_sampled

    def test_deterministic_across_instances(self, tiny_database, tiny_workload):
        first = SampledCardinalityExecutor(tiny_database, sample_rows=500, seed=5)
        second = SampledCardinalityExecutor(tiny_database, sample_rows=500, seed=5)
        for entry in tiny_workload[:10]:
            a, b = first.execute(entry.query), second.execute(entry.query)
            assert (a.estimate, a.lower, a.upper, a.observed) == (
                b.estimate,
                b.lower,
                b.upper,
                b.observed,
            )

    def test_covers_helper(self, tiny_database):
        executor = SampledCardinalityExecutor(tiny_database, sample_rows=500, seed=5)
        query = Query(tables=("cast_info",), predicates=(Predicate("cast_info", "role_id", ">", 0),))
        result = executor.execute(query)
        assert result.covers(result.estimate)
        assert not result.covers(result.upper * 2 + 1)

    @pytest.mark.parametrize("kwargs", ({"sample_rows": 0}, {"confidence": 0.0}, {"confidence": 1.0}))
    def test_invalid_parameters_rejected(self, tiny_database, kwargs):
        with pytest.raises(ValueError):
            SampledCardinalityExecutor(tiny_database, **kwargs)


class TestCoverage:
    def test_empirical_coverage_near_nominal(self, tiny_database, tiny_workload):
        """The 95% interval should cover the exact cardinality ~95% of the time.

        Join fan-out violates the strict binomial independence the interval
        assumes, so the assertion floors at 0.85 (measured coverage on this
        workload sits around 0.9 at small sampling fractions).
        """
        exact = CardinalityExecutor(tiny_database)
        executor = SampledCardinalityExecutor(
            tiny_database, sample_rows=700, seed=11, confidence=0.95
        )
        covered = total = 0
        for entry in tiny_workload:
            result = executor.execute(entry.query)
            if result.exact:
                continue
            truth = exact.execute(entry.query)
            total += 1
            covered += result.covers(truth)
        assert total >= 30
        assert covered / total >= 0.85

    def test_single_table_estimate_is_consistent(self, tiny_database):
        """On a single sampled table the estimator is a plain scaled count."""
        executor = SampledCardinalityExecutor(tiny_database, sample_rows=400, seed=2)
        query = Query(tables=("cast_info",))
        result = executor.execute(query)
        fraction = executor.sampling_fraction("cast_info")
        assert result.observed == executor.sampled_database.table("cast_info").num_rows
        assert result.estimate == pytest.approx(result.observed / fraction)
        assert result.covers(tiny_database.table("cast_info").num_rows)

    def test_join_estimate_tracks_truth(self, tiny_database):
        exact = CardinalityExecutor(tiny_database)
        executor = SampledCardinalityExecutor(tiny_database, sample_rows=800, seed=13)
        query = Query(
            tables=("title", "cast_info"),
            joins=(JoinCondition("cast_info", "movie_id", "title", "id"),),
        )
        truth = exact.execute(query)
        result = executor.execute(query)
        # Generous factor-of-three band: this is a smoke check that the
        # multiplicity correction has the right scale, not a variance bound.
        assert truth / 3 <= result.estimate <= truth * 3
