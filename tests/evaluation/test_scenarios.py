"""Tests of the cross-scenario evaluation harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FeaturizationVariant, LossKind, MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.datasets.registry import get_dataset
from repro.estimators.base import CardinalityEstimator
from repro.evaluation.runner import evaluate_estimator
from repro.evaluation.scenarios import (
    Scenario,
    ScenarioConfig,
    build_scenario,
    build_scenarios,
    format_bytes,
    format_scenario_matrix,
    mscn_factory,
    run_scenarios,
)

TINY = ScenarioConfig(
    datasets=("retail", "forum"),
    dataset_scale=0.04,
    num_training_queries=80,
    num_eval_queries=40,
    sample_size=25,
    # The strict routing tests below assert exactly one estimate_many call
    # per matrix cell; plan quality legitimately fans out into sub-plan
    # batches, so it gets its own dedicated config/tests.
    include_plan_quality=False,
)

PLAN_QUALITY = ScenarioConfig(
    datasets=("retail",),
    dataset_scale=0.04,
    num_training_queries=60,
    num_eval_queries=40,
    sample_size=25,
    plan_quality_max_queries=10,
)


class _CountingOracle(CardinalityEstimator):
    """Answers 1.0 everywhere; records how estimate_many was called."""

    name = "counting oracle"

    def __init__(self):
        self.estimate_many_calls = 0
        self.received_types: list[type] = []

    def estimate(self, query):  # pragma: no cover - must never be hit
        raise AssertionError("evaluation must route through estimate_many")

    def estimate_many(self, queries):
        self.estimate_many_calls += 1
        self.received_types.append(type(queries))
        return np.ones(len(queries), dtype=np.float64)


class TestScenarioBuilding:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset_scale=0)
        with pytest.raises(ValueError):
            ScenarioConfig(num_eval_queries=0)

    def test_selected_specs_default_to_all_registered(self):
        names = {spec.name for spec in ScenarioConfig().selected_specs()}
        assert {"imdb", "retail", "forum"} <= names

    def test_build_scenarios_respects_selection(self):
        scenarios = build_scenarios(TINY)
        assert [scenario.name for scenario in scenarios] == ["retail", "forum"]
        for scenario in scenarios:
            assert len(scenario.training_workload) == TINY.num_training_queries
            assert set(scenario.evaluation_workloads) == {"synthetic"}
            assert all(
                labelled.cardinality > 0
                for labelled in scenario.evaluation_workloads["synthetic"]
            )

    def test_scale_workload_strata_follow_the_spec(self):
        config = ScenarioConfig(
            datasets=("forum",),
            dataset_scale=0.04,
            num_training_queries=40,
            num_eval_queries=20,
            sample_size=25,
            include_scale_workload=True,
            scale_queries_per_join_count=3,
        )
        scenario = build_scenario(config.selected_specs()[0], config)
        scale = scenario.evaluation_workloads["scale"]
        join_counts = {labelled.num_joins for labelled in scale}
        # forum's spec recommends strata up to five joins (the full chain).
        assert join_counts == {0, 1, 2, 3, 4, 5}


class TestScenarioState:
    """A scenario over an explicitly sized snapshot, the way the paper suite
    (``benchmarks/conftest.py``) builds its IMDb scenario."""

    CONFIG = ScenarioConfig(
        datasets=("imdb",), num_training_queries=150, num_eval_queries=60, sample_size=30
    )
    MSCN = MSCNConfig(hidden_units=16, epochs=3, batch_size=64, num_samples=30)

    @pytest.fixture(scope="class")
    def scenario(self):
        database = generate_imdb(
            SyntheticIMDbConfig(
                num_titles=800, num_companies=120, num_persons=1500, num_keywords=300, seed=1
            )
        )
        return Scenario(spec=get_dataset("imdb"), database=database, config=self.CONFIG)

    def test_samples_and_workloads_are_built_once(self, scenario):
        assert scenario.samples is scenario.samples
        assert scenario.samples.sample_size == 30
        assert scenario.training_workload is scenario.training_workload
        assert scenario.evaluation_workloads is scenario.evaluation_workloads

    def test_workloads_have_requested_sizes(self, scenario):
        assert len(scenario.training_workload) == 150
        assert len(scenario.evaluation_workloads["synthetic"]) == 60

    def test_training_and_evaluation_workloads_use_different_seeds(self, scenario):
        train_signatures = {q.query.signature() for q in scenario.training_workload}
        test_signatures = {
            q.query.signature() for q in scenario.evaluation_workloads["synthetic"]
        }
        # The two workloads come from different generator seeds; a small
        # overlap is possible but they must not coincide.
        assert len(test_signatures - train_signatures) > 0

    def test_trained_mscn_is_memoized_per_config(self, scenario, monkeypatch):
        first = scenario.trained_mscn(self.MSCN)
        assert first.training_result is not None
        fits = []
        original_fit = MSCNEstimator.fit
        monkeypatch.setattr(
            MSCNEstimator,
            "fit",
            lambda estimator, *args, **kwargs: fits.append(estimator)
            or original_fit(estimator, *args, **kwargs),
        )
        # An equal configuration (not the same object) hits the memo.
        assert scenario.trained_mscn(self.MSCN.replace()) is first
        assert mscn_factory(self.MSCN)(scenario) is first
        assert fits == []
        # A different variant or loss is a different model.
        no_samples = scenario.trained_mscn(
            self.MSCN.replace(variant=FeaturizationVariant.NO_SAMPLES)
        )
        mse = scenario.trained_mscn(self.MSCN.replace(loss=LossKind.MSE))
        assert fits == [no_samples, mse]
        assert no_samples is not first and mse is not first
        assert no_samples.config.variant is FeaturizationVariant.NO_SAMPLES
        assert mse.config.loss is LossKind.MSE
        # Every model shares the scenario's samples (and their bitmap cache).
        assert first.samples is mse.samples is scenario.samples

    def test_trained_mscn_sizes_the_config_from_its_samples(self, scenario):
        """A config's ``num_samples`` names the scenario's sample size, so
        configs differing only there are one model, saved with the right
        size."""
        first = scenario.trained_mscn(self.MSCN)
        assert first.config.num_samples == scenario.samples.sample_size == 30
        assert scenario.trained_mscn(self.MSCN.replace(num_samples=1000)) is first
        default_size = MSCNConfig(hidden_units=16, epochs=3, batch_size=64)
        assert default_size.num_samples == 1000
        assert mscn_factory(default_size)(scenario) is first


class TestRunScenarios:
    def test_matrix_covers_datasets_and_estimators(self):
        scenarios = build_scenarios(TINY)
        oracle = _CountingOracle()
        results = run_scenarios(
            {"oracle": lambda scenario: oracle}, scenarios=scenarios
        )
        assert {(entry.dataset, entry.estimator_name) for entry in results} == {
            ("retail", "oracle"),
            ("forum", "oracle"),
        }
        assert all(entry.workload == "synthetic" for entry in results)
        assert all(entry.num_queries == TINY.num_eval_queries for entry in results)
        # One vectorized call per (dataset, workload) cell — never per query.
        assert oracle.estimate_many_calls == len(results)
        # Baselines never train, so the expensive truth-labelled training
        # workload must not have been built.
        assert all(scenario._training_workload is None for scenario in scenarios)

    def test_bare_factory_uses_estimator_name(self):
        scenarios = build_scenarios(TINY)[:1]
        results = run_scenarios(lambda scenario: _CountingOracle(), scenarios=scenarios)
        assert results[0].estimator_name == "counting oracle"

    def test_empty_factory_mapping_rejected(self):
        with pytest.raises(ValueError):
            run_scenarios({}, scenarios=[])

    def test_mscn_factory_trains_per_scenario(self):
        config = ScenarioConfig(
            datasets=("retail",),
            dataset_scale=0.04,
            num_training_queries=60,
            num_eval_queries=25,
            sample_size=25,
        )
        factory = mscn_factory(
            MSCNConfig(hidden_units=12, epochs=2, batch_size=32, num_samples=25, seed=3)
        )
        results = run_scenarios({"MSCN": factory}, config)
        (entry,) = results
        assert entry.dataset == "retail"
        assert np.isfinite(entry.summary.mean)
        assert entry.summary.median >= 1.0

    def test_format_scenario_matrix_lists_every_cell(self):
        scenarios = build_scenarios(TINY)
        results = run_scenarios({"oracle": lambda s: _CountingOracle()}, scenarios=scenarios)
        text = format_scenario_matrix(results, title="matrix")
        assert text.startswith("matrix")
        for entry in results:
            assert entry.dataset in text
        assert "median" in text and "99th" in text
        # Plan quality was disabled, so the plan columns must not appear.
        assert "plan·med" not in text


class TestPlanQualityDimension:
    def test_run_scenarios_reports_plan_quality(self):
        scenarios = build_scenarios(PLAN_QUALITY)
        from repro.estimators.postgres import PostgresEstimator
        from repro.estimators.true import TrueCardinalityEstimator

        results = run_scenarios(
            {
                "postgres": lambda s: PostgresEstimator(s.database),
                "truth": lambda s: TrueCardinalityEstimator(s.database),
            },
            scenarios=scenarios,
        )
        by_name = {entry.estimator_name: entry for entry in results}
        for entry in by_name.values():
            quality = entry.plan_quality
            assert quality is not None
            assert 1 <= quality.count <= PLAN_QUALITY.plan_quality_max_queries
            assert quality.median >= 1.0
            assert quality.maximum >= quality.median
        # Driving the optimizer with true cardinalities always yields the
        # optimal plan, so the truth row pins the metric's floor.
        truth_quality = by_name["truth"].plan_quality
        assert truth_quality.maximum == 1.0
        assert truth_quality.fraction_optimal == 1.0
        assert truth_quality.total_cost_ratio == 1.0
        # The independence-assumption baseline must never beat the floor.
        assert by_name["postgres"].plan_quality.mean >= 1.0

    def test_oracle_memoizes_shared_subplans_across_estimators(self):
        scenarios = build_scenarios(PLAN_QUALITY)
        run_scenarios(
            {
                "a": lambda s: _CountingOracle(),
                "b": lambda s: _CountingOracle(),
            },
            scenarios=scenarios,
        )
        oracle = scenarios[0].true_estimator
        # The second estimator's plan-quality pass re-asks for the exact same
        # sub-plans; the signature-keyed memo must have served them.
        assert oracle.cache_hits >= oracle.cache_misses

    def test_plan_quality_columns_in_matrix(self):
        scenarios = build_scenarios(PLAN_QUALITY)
        results = run_scenarios({"oracle": lambda s: _CountingOracle()}, scenarios=scenarios)
        text = format_scenario_matrix(results)
        assert "plan·med" in text and "plan·max" in text and "opt%" in text

    def test_plan_quality_disabled_for_min_join_starved_workloads(self):
        config = ScenarioConfig(
            datasets=("retail",),
            dataset_scale=0.04,
            num_training_queries=60,
            num_eval_queries=20,
            sample_size=25,
            plan_quality_min_joins=50,  # nothing qualifies
        )
        results = run_scenarios({"oracle": lambda s: _CountingOracle()}, config)
        assert all(entry.plan_quality is None for entry in results)


class TestScaleTiersAndMemoryReporting:
    def test_config_accepts_tier_names(self):
        config = ScenarioConfig(datasets=("retail",), dataset_scale="small")
        (spec,) = config.selected_specs()
        assert spec.resolve_scale(config.dataset_scale) == 0.25

    def test_config_rejects_non_positive_numeric_scale(self):
        with pytest.raises(ValueError):
            ScenarioConfig(dataset_scale=-1.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_config_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match=repr(scale)):
            ScenarioConfig(dataset_scale=scale)

    def test_scenario_reports_database_bytes(self):
        scenario = build_scenarios(TINY)[0]
        assert scenario.database_bytes == scenario.database.memory_bytes() > 0

    def test_matrix_shows_memory_column(self):
        scenarios = build_scenarios(TINY)
        results = run_scenarios({"oracle": lambda s: _CountingOracle()}, scenarios=scenarios)
        assert all(entry.database_bytes > 0 for entry in results)
        text = format_scenario_matrix(results)
        assert "db·mem" in text
        assert "KiB" in text or "MiB" in text

    def test_format_bytes(self):
        assert format_bytes(0) == "—"
        assert format_bytes(512) == "512B"
        assert format_bytes(2048) == "2.0KiB"
        assert format_bytes(3 * 1024**2) == "3.0MiB"
        assert format_bytes(int(1.5 * 1024**3)) == "1.5GiB"


class TestSequenceRouting:
    def test_evaluate_estimator_accepts_tuple_workloads(self):
        scenario = build_scenarios(TINY)[0]
        workload = tuple(scenario.evaluation_workloads["synthetic"])
        oracle = _CountingOracle()
        result = evaluate_estimator(oracle, workload)
        assert oracle.estimate_many_calls == 1
        assert result.estimates.shape == (len(workload),)
        # The base-class contract: any Sequence[Query] is accepted, so the
        # harness may hand tuples straight through to subclass overrides.
        assert all(issubclass(kind, tuple) for kind in oracle.received_types)

    def test_base_estimate_many_accepts_any_sequence(self):
        class ConstantEstimator(CardinalityEstimator):
            name = "constant"

            def estimate(self, query):
                return 2.0

        scenario = build_scenarios(TINY)[0]
        queries = tuple(
            labelled.query for labelled in scenario.evaluation_workloads["synthetic"][:5]
        )
        estimates = ConstantEstimator().estimate_many(queries)
        np.testing.assert_array_equal(estimates, np.full(5, 2.0))
