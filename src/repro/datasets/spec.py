"""Schema-agnostic dataset specifications.

The paper argues (Section 3.1) that MSCN's featurization applies to *any*
PK/FK schema: vocabularies are derived from the schema's tables, join edges
and non-key columns, never from dataset-specific constants.  A
:class:`DatasetSpec` is the contract that makes the rest of this codebase
honour that claim — it bundles everything a training/evaluation pipeline
needs to run against a dataset it has never seen:

* a :class:`~repro.db.schema.Schema` factory (the vocabulary source),
* a correlated data generator ``(scale, seed) -> Database`` (every dataset
  must plant join-crossing correlations, the phenomenon the paper's model is
  designed to capture),
* derived join-graph metadata (:class:`JoinGraphSummary`): topology, the
  largest satisfiable join count and the join diameter — the quantities the
  workload generators need to produce valid stratified workloads,
* a :class:`WorkloadRecommendation` with the join bounds and workload sizes
  the dataset was designed for.

Specs are registered in :mod:`repro.datasets.registry`; everything downstream
(``workload``, ``evaluation.experiments``, ``evaluation.scenarios``, the
benchmarks) consumes specs, so adding a dataset is one module plus one
``register_dataset`` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.db.schema import Schema
from repro.db.table import Database
from repro.workload.generator import WorkloadConfig

__all__ = [
    "WorkloadRecommendation",
    "JoinGraphSummary",
    "DatasetSpec",
    "DEFAULT_SCALE_TIERS",
]

#: Named scale tiers shared by all datasets unless a spec overrides them.
#: ``small`` is the CI-friendly default of the scenario matrix, ``medium``
#: the generator's design size, and ``large`` the million-row tier — specs
#: that advertise a million-row fact table override ``large`` with whatever
#: multiplier reaches it for their schema.
DEFAULT_SCALE_TIERS: tuple[tuple[str, float], ...] = (
    ("small", 0.25),
    ("medium", 1.0),
    ("large", 8.0),
)


@dataclass(frozen=True)
class WorkloadRecommendation:
    """The workload shape a dataset was designed to be trained/evaluated on.

    ``max_joins`` bounds the training and synthetic-evaluation workloads (the
    paper trains IMDb on 0-2 joins); ``scale_max_joins`` is the upper bound of
    the *scale* generalization workload and may exceed ``max_joins``.
    """

    max_joins: int = 2
    scale_max_joins: int = 4
    num_training_queries: int = 3000
    num_eval_queries: int = 500
    max_predicates_per_table: int | None = None

    def __post_init__(self) -> None:
        if self.max_joins < 0 or self.scale_max_joins < 0:
            raise ValueError("join bounds must be non-negative")
        if self.num_training_queries <= 0 or self.num_eval_queries <= 0:
            raise ValueError("workload sizes must be positive")


@dataclass(frozen=True)
class JoinGraphSummary:
    """Join-graph metadata derived from a schema (never hand-maintained)."""

    num_tables: int
    num_join_edges: int
    max_joins_per_query: int
    diameter: int

    @classmethod
    def from_schema(cls, schema: Schema) -> "JoinGraphSummary":
        return cls(
            num_tables=len(schema.tables),
            num_join_edges=len(schema.join_edges()),
            max_joins_per_query=schema.max_joins_per_query(),
            diameter=schema.join_diameter(),
        )


@dataclass(frozen=True)
class DatasetSpec:
    """A registrable dataset: schema, correlated generator, workload defaults.

    Parameters
    ----------
    name:
        Registry key (``"imdb"``, ``"retail"``, ...).
    description:
        One-line summary shown by listings and reports.
    topology:
        Join-graph shape label (``"star"``, ``"snowflake"``, ...); purely
        descriptive — all structural metadata is derived from the schema.
    schema_factory:
        Zero-argument callable building the dataset's schema.
    generator:
        ``(scale, seed) -> Database`` building a correlated database snapshot;
        ``scale`` multiplies the row counts without changing distributions.
    default_seed:
        Seed used when :meth:`generate` is called without one.
    workload:
        Recommended workload bounds/sizes (see :class:`WorkloadRecommendation`).
    scale_tiers:
        Named ``(tier, scale)`` pairs accepted wherever a scale is expected
        (``generate("large")``); specs size their ``large`` tier to cross the
        million-fact-row line for their own schema.
    """

    name: str
    description: str
    topology: str
    schema_factory: Callable[[], Schema]
    generator: Callable[[float, int], Database]
    default_seed: int = 42
    workload: WorkloadRecommendation = field(default_factory=WorkloadRecommendation)
    scale_tiers: tuple[tuple[str, float], ...] = DEFAULT_SCALE_TIERS

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a dataset spec needs a non-empty name")
        if not self.scale_tiers:
            raise ValueError("a dataset spec needs at least one scale tier")
        seen: set[str] = set()
        for tier, value in self.scale_tiers:
            if not tier:
                raise ValueError("scale tier names must be non-empty")
            if tier in seen:
                raise ValueError(f"duplicate scale tier {tier!r}")
            seen.add(tier)
            if value <= 0:
                raise ValueError(f"scale tier {tier!r} must map to a positive scale")

    # -- schema and metadata (cached: specs are immutable) ----------------
    @property
    def schema(self) -> Schema:
        cached = self.__dict__.get("_schema")
        if cached is None:
            cached = self.schema_factory()
            object.__setattr__(self, "_schema", cached)
        return cached

    def join_graph(self) -> JoinGraphSummary:
        cached = self.__dict__.get("_join_graph")
        if cached is None:
            cached = JoinGraphSummary.from_schema(self.schema)
            object.__setattr__(self, "_join_graph", cached)
        return cached

    # -- generation -------------------------------------------------------
    def tier_names(self) -> tuple[str, ...]:
        """The named scale tiers this spec accepts (``generate("large")``)."""
        return tuple(tier for tier, _ in self.scale_tiers)

    def resolve_scale(self, scale: float | str) -> float:
        """Map a tier name or numeric scale to the numeric scale factor."""
        if isinstance(scale, str):
            for tier, value in self.scale_tiers:
                if tier == scale:
                    return value
            raise ValueError(
                f"dataset {self.name!r} has no scale tier {scale!r} "
                f"(known tiers: {', '.join(self.tier_names())})"
            )
        value = float(scale)
        if value <= 0:
            raise ValueError("scale must be positive")
        return value

    def generate(self, scale: float | str = 1.0, seed: int | None = None) -> Database:
        """Generate a correlated database snapshot for this dataset.

        ``scale`` is either a numeric multiplier or one of the spec's named
        tiers (see :meth:`resolve_scale`).
        """
        scale = self.resolve_scale(scale)
        database = self.generator(scale, self.default_seed if seed is None else seed)
        if database.schema.table_names != self.schema.table_names:
            raise RuntimeError(
                f"dataset {self.name!r}: generator produced tables "
                f"{database.schema.table_names} but the spec's schema declares "
                f"{self.schema.table_names}"
            )
        return database

    # -- workload configuration -------------------------------------------
    def training_workload_config(
        self, num_queries: int | None = None, seed: int = 0, **overrides
    ) -> WorkloadConfig:
        """A :class:`WorkloadConfig` following the spec's recommendation.

        The join bound is clamped to what the schema's join graph can
        actually connect, so a recommendation never produces unsatisfiable
        strata on a smaller-than-expected schema.
        """
        recommendation = self.workload
        config = dict(
            num_queries=num_queries
            if num_queries is not None
            else recommendation.num_training_queries,
            max_joins=min(recommendation.max_joins, self.join_graph().max_joins_per_query),
            max_predicates_per_table=recommendation.max_predicates_per_table,
            seed=seed,
        )
        config.update(overrides)
        return WorkloadConfig(**config)

    def evaluation_workload_config(
        self, num_queries: int | None = None, seed: int = 1, **overrides
    ) -> WorkloadConfig:
        """The evaluation twin of :meth:`training_workload_config`."""
        if num_queries is None:
            num_queries = self.workload.num_eval_queries
        return self.training_workload_config(num_queries, seed, **overrides)

    def describe(self) -> str:
        """Human-readable one-paragraph summary (used by listings/examples)."""
        graph = self.join_graph()
        return (
            f"{self.name}: {self.description} "
            f"[{self.topology}; {graph.num_tables} tables, "
            f"{graph.num_join_edges} join edges, "
            f"max {graph.max_joins_per_query} joins/query, "
            f"diameter {graph.diameter}]"
        )
