"""The *scale* workload (paper Section 4.4).

Equal-sized strata of queries per join count — the paper uses 500 queries,
100 per join count from zero to four — produced by the same random generator
as the training data but allowed to grow beyond the training join limit.  It
measures how MSCN generalizes to queries with more joins than it was trained
on.

The stratification is schema-agnostic: the satisfiable join range is derived
from the database's join graph (the largest connected component bounds it),
so the same function produces scale workloads for the IMDb star, the retail
star and the forum snowflake alike.  :func:`generate_scale_workload_for_spec`
additionally reads the stratum ceiling from a registered
:class:`~repro.datasets.spec.DatasetSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.table import Database
from repro.workload.generator import LabelledQuery, QueryGenerator, WorkloadConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from repro.datasets.spec import DatasetSpec

__all__ = ["ScaleWorkloadConfig", "generate_scale_workload", "generate_scale_workload_for_spec"]


@dataclass(frozen=True)
class ScaleWorkloadConfig:
    """Configuration of the scale workload."""

    queries_per_join_count: int = 100
    max_joins: int = 4
    seed: int = 103

    def __post_init__(self) -> None:
        if self.queries_per_join_count <= 0:
            raise ValueError("queries_per_join_count must be positive")
        if self.max_joins < 0:
            raise ValueError("max_joins must be non-negative")


def generate_scale_workload(
    database: Database, config: ScaleWorkloadConfig | None = None, **overrides
) -> list[LabelledQuery]:
    """Generate the scale workload: equal-sized strata of 0..max_joins queries.

    A join tree with ``k`` joins needs ``k + 1`` tables inside one connected
    component of the join graph, so the largest component bounds the
    satisfiable strata; requesting more raises ``ValueError``.  Extra keyword
    arguments (e.g. the ``truth_*`` oracle knobs) are
    forwarded into each stratum's :class:`WorkloadConfig`.
    """
    config = config if config is not None else ScaleWorkloadConfig()
    max_possible_joins = database.schema.max_joins_per_query()
    if config.max_joins > max_possible_joins:
        raise ValueError(
            f"max_joins={config.max_joins} exceeds the {max_possible_joins} joins "
            "the schema's join graph can connect in one query"
        )
    workload: list[LabelledQuery] = []
    for num_joins in range(config.max_joins + 1):
        stratum_config = WorkloadConfig(
            num_queries=config.queries_per_join_count,
            min_joins=num_joins,
            max_joins=num_joins,
            seed=config.seed + num_joins,
            **overrides,
        )
        generator = QueryGenerator(database, stratum_config)
        workload.extend(generator.generate())
    return workload


def generate_scale_workload_for_spec(
    spec: "DatasetSpec",
    database: Database,
    queries_per_join_count: int = 100,
    seed: int = 103,
    **overrides,
) -> list[LabelledQuery]:
    """The scale workload with the stratum ceiling a dataset spec recommends.

    The spec's ``scale_max_joins`` is clamped to what the schema's join graph
    can actually connect, so a recommendation written for the full-size
    schema stays valid on shrunken variants.  Extra keyword arguments are
    forwarded into each stratum's :class:`WorkloadConfig`.
    """
    config = ScaleWorkloadConfig(
        queries_per_join_count=queries_per_join_count,
        max_joins=min(spec.workload.scale_max_joins, spec.join_graph().max_joins_per_query),
        seed=seed,
    )
    return generate_scale_workload(database, config, **overrides)
