"""Cross-scenario evaluation: any estimator across every registered dataset.

The ROADMAP's north star asks the reproduction to handle "as many scenarios
as you can imagine"; this module is the harness that makes a *scenario* a
first-class object.  A scenario is one registered dataset instantiated at a
given scale plus its recommended workloads (the paper-style synthetic
workload and optionally the join-generalization *scale* workload).  Any
number of estimators — learned or baseline — can then be run over the full
``datasets x workloads`` matrix and summarized as per-scenario q-error
tables, the cross-schema analogue of the paper's Tables 2-4.

Every cell additionally reports **plan quality** (the paper's motivating
metric): the estimator's sub-plan cardinalities drive the DPsize join
enumerator, the chosen plan is re-costed under true cardinalities and
compared against the true-cardinality-optimal plan — so the matrix answers
"do better estimates actually produce cheaper plans?" per dataset and
workload, not just "are the estimates close?".

Estimators are supplied as *factories* ``(Scenario) -> CardinalityEstimator``
because a learned estimator must be trained per scenario (its vocabularies
are derived from the scenario's schema); baselines simply close over the
scenario's database.  :func:`mscn_factory` builds the standard MSCN factory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.registry import get_dataset, registered_datasets
from repro.datasets.spec import DatasetSpec
from repro.db.sampling import MaterializedSamples
from repro.db.table import Database
from repro.estimators.base import CardinalityEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.evaluation.metrics import QErrorSummary
from repro.evaluation.runner import EvaluationResult, evaluate_estimator
from repro.optimizer.quality import PlanQualitySummary, evaluate_plan_quality
from repro.workload.generator import (
    LabelledQuery,
    generate_evaluation_workload,
    generate_training_workload,
)
from repro.workload.scale import generate_scale_workload_for_spec

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "ScenarioResult",
    "EstimatorFactory",
    "build_scenario",
    "build_scenarios",
    "run_scenarios",
    "mscn_factory",
    "format_bytes",
    "format_scenario_matrix",
]

EstimatorFactory = Callable[["Scenario"], CardinalityEstimator]


@dataclass(frozen=True)
class ScenarioConfig:
    """Size knobs shared by every scenario of one evaluation run.

    ``datasets`` selects registered dataset names (empty means all).  The
    per-dataset workload sizes intentionally override the specs' recommended
    sizes: a cross-scenario run wants comparable, budget-bounded matrices,
    not each dataset's full-size workload.

    ``dataset_scale`` accepts a numeric multiplier or a named tier
    (``"small"`` / ``"medium"`` / ``"large"``) resolved per spec.  Every
    workload is labelled by :class:`~repro.workload.generator.WorkloadConfig`'s
    default truth oracle: at the ``large`` tier, queries over
    budget-exceeding table sets are labelled from bounded samples instead of
    full execution.
    """

    datasets: tuple[str, ...] = ()
    dataset_scale: float | str = 0.25
    dataset_seed: int = 42
    num_training_queries: int = 1000
    num_eval_queries: int = 200
    sample_size: int = 50
    include_scale_workload: bool = False
    scale_queries_per_join_count: int = 20
    training_seed: int = 21
    evaluation_seed: int = 99
    #: Plan-quality dimension: drive the DPsize enumerator with each
    #: estimator's sub-plan estimates and report the induced plan-cost ratio
    #: next to q-error.  ``plan_quality_min_joins`` skips queries whose join
    #: order cannot matter (< 2 joins ⇒ every plan has the same C_out cost);
    #: ``plan_quality_max_queries`` bounds the per-cell true-cardinality
    #: labelling work (sub-plans are memoized across estimators anyway).
    include_plan_quality: bool = True
    plan_quality_max_queries: int = 40
    plan_quality_min_joins: int = 2

    def __post_init__(self) -> None:
        if not isinstance(self.dataset_scale, str) and not (
            math.isfinite(self.dataset_scale) and self.dataset_scale > 0
        ):
            raise ValueError(
                f"dataset_scale must be positive and finite, got {self.dataset_scale!r}"
            )
        if self.num_training_queries <= 0 or self.num_eval_queries <= 0:
            raise ValueError("workload sizes must be positive")
        if self.plan_quality_max_queries <= 0:
            raise ValueError("plan_quality_max_queries must be positive")
        if self.plan_quality_min_joins < 0:
            raise ValueError("plan_quality_min_joins must be non-negative")

    def selected_specs(self) -> tuple[DatasetSpec, ...]:
        if not self.datasets:
            return registered_datasets()
        return tuple(get_dataset(name) for name in self.datasets)


@dataclass
class Scenario:
    """One dataset snapshot prepared for evaluation: samples, workloads, models.

    Everything past the database is built lazily on first access and kept:
    baseline estimators never train, and labelling thousands of queries is
    the most expensive step of scenario construction.  Trained MSCN models
    are memoized per :class:`MSCNConfig`, so every estimator of one
    configuration is fitted once per scenario.
    """

    spec: DatasetSpec
    database: Database
    config: ScenarioConfig
    _samples: MaterializedSamples | None = field(default=None, init=False, repr=False)
    _evaluation_workloads: dict[str, list[LabelledQuery]] | None = field(
        default=None, init=False, repr=False
    )
    _training_workload: list[LabelledQuery] | None = field(default=None, init=False, repr=False)
    _true_estimator: TrueCardinalityEstimator | None = field(default=None, init=False, repr=False)
    _trained: dict[MSCNConfig, MSCNEstimator] = field(default_factory=dict, init=False, repr=False)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def samples(self) -> MaterializedSamples:
        """Materialized base-table samples shared by every estimator."""
        if self._samples is None:
            self._samples = MaterializedSamples(
                self.database, sample_size=self.config.sample_size, seed=self.config.dataset_seed
            )
        return self._samples

    @property
    def training_workload(self) -> list[LabelledQuery]:
        if self._training_workload is None:
            self._training_workload = generate_training_workload(
                self.spec,
                self.database,
                self.config.num_training_queries,
                seed=self.config.training_seed,
            )
        return self._training_workload

    @property
    def evaluation_workloads(self) -> dict[str, list[LabelledQuery]]:
        """The ``synthetic`` workload (the training generator with the
        evaluation seed) and, when configured, the join-stratified ``scale``
        workload."""
        if self._evaluation_workloads is None:
            config = self.config
            workloads = {
                "synthetic": generate_evaluation_workload(
                    self.spec, self.database, config.num_eval_queries, seed=config.evaluation_seed
                )
            }
            if config.include_scale_workload:
                workloads["scale"] = generate_scale_workload_for_spec(
                    self.spec,
                    self.database,
                    queries_per_join_count=config.scale_queries_per_join_count,
                    seed=config.evaluation_seed + 1,
                )
            self._evaluation_workloads = workloads
        return self._evaluation_workloads

    def trained_mscn(self, config: MSCNConfig) -> MSCNEstimator:
        """An MSCN trained on this scenario's training workload (memoized).

        All models share the scenario's :class:`MaterializedSamples` and so
        its bitmap cache: the first sampling-enriched model pays for every
        bitmap probe of the training workload, later ones reuse them.
        """
        if config not in self._trained:
            estimator = MSCNEstimator(self.database, config, samples=self.samples)
            estimator.fit(self.training_workload)
            self._trained[config] = estimator
        return self._trained[config]

    @property
    def database_bytes(self) -> int:
        """Bytes of column storage held by the scenario's snapshot."""
        return self.database.memory_bytes()

    @property
    def true_estimator(self) -> TrueCardinalityEstimator:
        """The scenario's memoized truth oracle (built lazily, shared).

        Plan-quality evaluation executes every connected sub-plan of every
        eligible query; sharing one signature-memoized oracle across all
        estimators and workloads of the scenario executes each sub-plan once.
        """
        if self._true_estimator is None:
            self._true_estimator = TrueCardinalityEstimator(self.database)
        return self._true_estimator


@dataclass(frozen=True)
class ScenarioResult:
    """One cell of the evaluation matrix: estimator x dataset x workload.

    ``plan_quality`` is the induced-plan-cost view of the same cell (``None``
    when the dimension is disabled or the workload has no queries whose join
    order can matter).
    """

    dataset: str
    workload: str
    estimator_name: str
    summary: QErrorSummary
    result: EvaluationResult
    plan_quality: PlanQualitySummary | None = None
    #: Column-storage footprint of the scenario's database snapshot; lets the
    #: matrix report how much data each cell's estimates were computed over.
    database_bytes: int = 0
    #: Truth-oracle execution-reuse counters for this cell's plan-quality
    #: pass: sub-plan results served from the signature-keyed result memo
    #: (``executor_cache_*``) and base-table scans served from the
    #: per-predicate-set scan memo (``scan_reuse_*``).  All zero when plan
    #: quality is disabled for the run.
    executor_cache_hits: int = 0
    executor_cache_misses: int = 0
    scan_reuse_hits: int = 0
    scan_reuse_misses: int = 0

    @property
    def executor_reuse_fraction(self) -> float | None:
        """Fraction of oracle lookups (results + scans) served from a memo."""
        hits = self.executor_cache_hits + self.scan_reuse_hits
        total = hits + self.executor_cache_misses + self.scan_reuse_misses
        return hits / total if total else None

    @property
    def num_queries(self) -> int:
        return len(self.result.estimates)


def build_scenario(spec: DatasetSpec, config: ScenarioConfig | None = None) -> Scenario:
    """Generate one dataset's snapshot at the configured scale as a scenario."""
    config = config if config is not None else ScenarioConfig()
    database = spec.generate(scale=config.dataset_scale, seed=config.dataset_seed)
    return Scenario(spec=spec, database=database, config=config)


def build_scenarios(config: ScenarioConfig | None = None) -> list[Scenario]:
    """Build scenarios for every selected registered dataset."""
    config = config if config is not None else ScenarioConfig()
    return [build_scenario(spec, config) for spec in config.selected_specs()]


def run_scenarios(
    estimator_factories: Mapping[str, EstimatorFactory] | EstimatorFactory,
    config: ScenarioConfig | None = None,
    scenarios: list[Scenario] | None = None,
) -> list[ScenarioResult]:
    """Run estimators over the full dataset x workload matrix.

    ``estimator_factories`` maps display labels to factories; a bare factory
    is accepted for single-estimator runs (its estimator's ``name`` labels
    the rows).  ``scenarios`` short-circuits scenario building so expensive
    snapshots can be shared across several calls.
    """
    if scenarios is None:
        scenarios = build_scenarios(config)
    if callable(estimator_factories):
        factories: Mapping[str, EstimatorFactory | None] = {"": estimator_factories}
    else:
        factories = dict(estimator_factories)
        if not factories:
            raise ValueError("run_scenarios needs at least one estimator factory")
    results: list[ScenarioResult] = []
    for scenario in scenarios:
        for label, factory in factories.items():
            estimator = factory(scenario)
            for workload_name, workload in scenario.evaluation_workloads.items():
                evaluation = evaluate_estimator(estimator, workload)
                oracle = scenario.true_estimator if scenario.config.include_plan_quality else None
                before = _oracle_counters(oracle)
                plan_quality = _plan_quality_summary(scenario, estimator, workload)
                after = _oracle_counters(oracle)
                deltas = tuple(b - a for a, b in zip(before, after))
                results.append(
                    ScenarioResult(
                        dataset=scenario.name,
                        workload=workload_name,
                        estimator_name=label or evaluation.estimator_name,
                        summary=evaluation.summary(),
                        result=evaluation,
                        plan_quality=plan_quality,
                        database_bytes=scenario.database_bytes,
                        executor_cache_hits=deltas[0],
                        executor_cache_misses=deltas[1],
                        scan_reuse_hits=deltas[2],
                        scan_reuse_misses=deltas[3],
                    )
                )
    return results


def _oracle_counters(oracle: TrueCardinalityEstimator | None) -> tuple[int, int, int, int]:
    """Snapshot of the truth oracle's reuse counters (zeros when disabled)."""
    if oracle is None:
        return (0, 0, 0, 0)
    return (
        oracle.cache_hits,
        oracle.cache_misses,
        oracle.scan_reuse_hits,
        oracle.scan_reuse_misses,
    )


def _plan_quality_summary(
    scenario: Scenario, estimator, workload: list[LabelledQuery]
) -> PlanQualitySummary | None:
    """Plan-quality summary of one matrix cell (``None`` when not applicable)."""
    config = scenario.config
    if not config.include_plan_quality:
        return None
    eligible = [
        labelled.query
        for labelled in workload
        if labelled.query.num_joins >= config.plan_quality_min_joins
    ][: config.plan_quality_max_queries]
    if not eligible:
        return None
    report = evaluate_plan_quality(
        estimator,
        scenario.true_estimator,
        eligible,
        min_joins=config.plan_quality_min_joins,
    )
    return report.summary() if report.results else None


def mscn_factory(config: MSCNConfig | None = None) -> EstimatorFactory:
    """A factory handing out each scenario's MSCN trained with ``config``.

    The estimator derives its vocabularies from the scenario's schema and
    shares the scenario's materialized samples, so one factory serves every
    registered dataset; the scenario's memo trains it once per scenario.
    """
    config = config if config is not None else MSCNConfig()
    return lambda scenario: scenario.trained_mscn(config)


def format_bytes(num_bytes: int) -> str:
    """Human-readable byte count (``0`` renders as an em-dash)."""
    if num_bytes <= 0:
        return "—"
    value = float(num_bytes)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}TiB"  # pragma: no cover - loop always returns


def format_scenario_matrix(results: list[ScenarioResult], title: str = "") -> str:
    """Render scenario results as per-scenario q-error (and plan-cost) tables.

    One row per ``dataset / workload / estimator`` cell with the paper's
    q-error columns (median, 90th/95th/99th percentile, max, mean).  When any
    cell carries plan-quality results, three more columns report the induced
    plan-cost ratio (true cost of the estimator-chosen plan over the optimal
    plan's): its median and maximum over the cell's multi-join queries plus
    ``opt%``, the fraction of queries where the chosen plan *is* optimal.

    When any cell recorded truth-oracle reuse counters, an ``exec·hit%``
    column reports the fraction of the oracle's lookups served from a memo
    (sub-plan result cache hits plus base-scan reuse hits over all lookups)
    during that cell's plan-quality pass — the observable effect of scan
    reuse across sub-plan fan-outs.
    """

    def _value(value: float) -> str:
        if value >= 1000:
            return f"{value:,.0f}"
        if value >= 100:
            return f"{value:.0f}"
        if value >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"

    with_plans = any(entry.plan_quality is not None for entry in results)
    with_memory = any(entry.database_bytes > 0 for entry in results)
    with_reuse = any(entry.executor_reuse_fraction is not None for entry in results)
    header = (
        f"{'dataset':<10} {'workload':<10} {'estimator':<26} {'queries':>7} "
        f"{'median':>8} {'90th':>8} {'95th':>8} {'99th':>8} {'max':>10} {'mean':>8}"
    )
    if with_memory:
        header += f" {'db·mem':>9}"
    if with_plans:
        header += f" {'plan·med':>9} {'plan·max':>9} {'opt%':>6}"
    if with_reuse:
        header += f" {'exec·hit%':>10}"
    lines = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for entry in sorted(results, key=lambda r: (r.dataset, r.workload, r.estimator_name)):
        median, p90, p95, p99, maximum, mean = entry.summary.as_row()
        line = (
            f"{entry.dataset:<10} {entry.workload:<10} {entry.estimator_name:<26} "
            f"{entry.num_queries:>7} {_value(median):>8} {_value(p90):>8} "
            f"{_value(p95):>8} {_value(p99):>8} {_value(maximum):>10} {_value(mean):>8}"
        )
        if with_memory:
            line += f" {format_bytes(entry.database_bytes):>9}"
        if with_plans:
            quality = entry.plan_quality
            if quality is None:
                line += f" {'—':>9} {'—':>9} {'—':>6}"
            else:
                line += (
                    f" {_value(quality.median):>9} {_value(quality.maximum):>9} "
                    f"{100.0 * quality.fraction_optimal:>5.0f}%"
                )
        if with_reuse:
            reuse = entry.executor_reuse_fraction
            line += f" {'—':>10}" if reuse is None else f" {100.0 * reuse:>9.0f}%"
        lines.append(line)
    return "\n".join(lines)
