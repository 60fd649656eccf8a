"""Shared experiment configurations for the benchmark harness.

The paper's setup (2.5M-title IMDb, 100,000 training queries, 100 epochs,
256 hidden units, GPU training) does not fit a laptop-CPU benchmark run, so
every experiment is parameterized by an :class:`ExperimentScale`.  The
``small`` preset keeps the full pipeline — correlated data, sample bitmaps,
all estimators — but shrinks the database and training corpus so the whole
benchmark suite finishes in minutes; the ``paper`` preset records the
original parameters for completeness.  EXPERIMENTS.md documents which preset
produced the reported numbers.

Experiments are dataset-agnostic: an :class:`ExperimentScale` names a
registered :class:`~repro.datasets.spec.DatasetSpec` (``imdb`` by default)
and the context derives the database, the workload join bounds and the
stratified workloads from the spec.  The IMDb-specific ``database_config``
knob survives for the presets that size the synthetic IMDb precisely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.batching import RaggedDataset
from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.datasets.registry import get_dataset
from repro.datasets.spec import DatasetSpec
from repro.db.sampling import MaterializedSamples
from repro.db.table import Database
from repro.workload.generator import LabelledQuery, QueryGenerator

__all__ = ["ExperimentScale", "SMALL_SCALE", "PAPER_SCALE", "ExperimentContext"]


@dataclass(frozen=True)
class ExperimentScale:
    """All size knobs of the reproduction experiments.

    ``dataset`` names a registered spec; ``dataset_scale``/``dataset_seed``
    parameterize its generator.  For the IMDb dataset, ``database_config``
    overrides both with the fully explicit generator configuration (the
    historical presets pin exact population sizes this way).
    ``training_max_joins`` defaults to the spec's recommended join bound.
    """

    name: str
    dataset: str = "imdb"
    dataset_scale: float = 1.0
    dataset_seed: int = 42
    database_config: SyntheticIMDbConfig | None = None
    num_training_queries: int = 3000
    num_synthetic_queries: int = 500
    scale_queries_per_join_count: int = 30
    training_max_joins: int | None = None
    job_light_scale: float = 1.0
    sample_size: int = 100
    hidden_units: int = 64
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    training_seed: int = 21
    evaluation_seed: int = 99

    def __post_init__(self) -> None:
        if self.database_config is not None and self.dataset != "imdb":
            raise ValueError(
                "database_config is the IMDb generator's configuration; "
                f"it cannot parameterize dataset {self.dataset!r}"
            )

    @property
    def spec(self) -> DatasetSpec:
        return get_dataset(self.dataset)

    def mscn_config(self, variant: FeaturizationVariant = FeaturizationVariant.BITMAPS,
                    **overrides) -> MSCNConfig:
        """An :class:`MSCNConfig` matching this experiment scale."""
        base = MSCNConfig(
            hidden_units=self.hidden_units,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            variant=variant,
            num_samples=self.sample_size,
            seed=42,
        )
        return base.replace(**overrides) if overrides else base


#: Default scale used by the benchmark suite (laptop-CPU friendly).
SMALL_SCALE = ExperimentScale(
    name="small",
    database_config=SyntheticIMDbConfig(
        num_titles=20_000,
        num_companies=2_500,
        num_persons=30_000,
        num_keywords=8_000,
        seed=42,
    ),
    num_training_queries=10_000,
    num_synthetic_queries=800,
    scale_queries_per_join_count=40,
    sample_size=100,
    hidden_units=128,
    epochs=60,
    batch_size=256,
)

#: The paper's original parameters (documented; not run by the benchmarks).
PAPER_SCALE = ExperimentScale(
    name="paper",
    database_config=SyntheticIMDbConfig(num_titles=2_528_312, seed=42),
    num_training_queries=100_000,
    num_synthetic_queries=5_000,
    scale_queries_per_join_count=100,
    sample_size=1000,
    hidden_units=256,
    epochs=100,
    batch_size=1024,
)


@dataclass
class ExperimentContext:
    """Lazily-built shared state for the benchmark suite.

    Building the database, labelling training queries and training MSCN are
    by far the most expensive steps, so they are built once and reused by all
    benchmarks of a session.
    """

    scale: ExperimentScale = field(default_factory=lambda: SMALL_SCALE)
    _database: Database | None = None
    _samples: MaterializedSamples | None = None
    _training_workload: list[LabelledQuery] | None = None
    _synthetic_workload: list[LabelledQuery] | None = None
    _estimators: dict[str, MSCNEstimator] = field(default_factory=dict)
    _featurized_workloads: dict[str, RaggedDataset] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def spec(self) -> DatasetSpec:
        """The registered dataset spec this context runs against."""
        return self.scale.spec

    @property
    def database(self) -> Database:
        if self._database is None:
            if self.scale.database_config is not None:
                self._database = generate_imdb(self.scale.database_config)
            else:
                self._database = self.spec.generate(
                    scale=self.scale.dataset_scale, seed=self.scale.dataset_seed
                )
        return self._database

    @property
    def samples(self) -> MaterializedSamples:
        if self._samples is None:
            self._samples = MaterializedSamples(
                self.database, sample_size=self.scale.sample_size, seed=42
            )
        return self._samples

    def _workload_config(self, num_queries: int, seed: int):
        overrides = {}
        if self.scale.training_max_joins is not None:
            overrides["max_joins"] = self.scale.training_max_joins
        return self.spec.training_workload_config(num_queries, seed, **overrides)

    @property
    def training_workload(self) -> list[LabelledQuery]:
        """Random training queries (Section 3.3) within the spec's join bound."""
        if self._training_workload is None:
            generator = QueryGenerator(
                self.database,
                self._workload_config(
                    self.scale.num_training_queries, self.scale.training_seed
                ),
            )
            self._training_workload = generator.generate()
        return self._training_workload

    @property
    def synthetic_workload(self) -> list[LabelledQuery]:
        """The evaluation workload from the same generator, different seed."""
        if self._synthetic_workload is None:
            generator = QueryGenerator(
                self.database,
                self._workload_config(
                    self.scale.num_synthetic_queries, self.scale.evaluation_seed
                ),
            )
            self._synthetic_workload = generator.generate()
        return self._synthetic_workload

    # ------------------------------------------------------------------
    def trained_mscn(
        self, variant: FeaturizationVariant = FeaturizationVariant.BITMAPS, **overrides
    ) -> MSCNEstimator:
        """A trained MSCN estimator for ``variant`` (cached per configuration).

        All variants share one :class:`MaterializedSamples` instance, so they
        also share its bitmap cache: the first sampling-enriched variant pays
        for every bitmap probe of the training workload, later variants (and
        every serving call) reuse the memoized bitmaps.
        """
        key = f"{variant.value}:{sorted(overrides.items())}"
        if key not in self._estimators:
            config = self.scale.mscn_config(variant, **overrides)
            estimator = MSCNEstimator(self.database, config, samples=self.samples)
            estimator.fit(self.training_workload)
            self._estimators[key] = estimator
        return self._estimators[key]

    def featurized_workload(
        self, variant: FeaturizationVariant = FeaturizationVariant.BITMAPS
    ) -> RaggedDataset:
        """The synthetic workload, featurized once into the ragged layout
        through the trained estimator's featurizer (cached per variant)."""
        key = variant.value
        if key not in self._featurized_workloads:
            estimator = self.trained_mscn(variant)
            labelled = self.synthetic_workload
            self._featurized_workloads[key] = estimator.featurizer.featurize_ragged(
                [q.query for q in labelled],
                cardinalities=[q.cardinality for q in labelled],
            )
        return self._featurized_workloads[key]
