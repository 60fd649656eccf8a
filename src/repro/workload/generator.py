"""The paper's random query generator (Section 3.3).

The generator produces uniformly distributed queries over a constrained
search space:

1. draw the number of joins ``|J_q|`` uniformly from ``0..max_joins``,
2. pick a starting table (uniformly among tables participating in the join
   graph),
3. ``|J_q|`` times, uniformly pick a new table joinable with the current
   table set and add the corresponding join edge,
4. for every base table in the query, draw the number of predicates uniformly
   from ``0..#non-key columns``, then for each predicate draw the operator
   uniformly from ``{=, <, >}`` and a literal from the column's actual values,
5. keep only unique queries, execute them to obtain the true cardinality, and
   skip queries with empty results.

The same generator (with a different seed) produces the paper's *synthetic*
evaluation workload of 5,000 queries.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.db.executor import CardinalityExecutor
from repro.db.predicates import Operator
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.table import Database
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from repro.datasets.spec import DatasetSpec
    from repro.db.sampled import SampledCardinalityExecutor

__all__ = ["WorkloadConfig", "LabelledQuery", "QueryGenerator"]

_OPERATORS = (Operator.EQ, Operator.LT, Operator.GT)


@dataclass(frozen=True)
class LabelledQuery:
    """A query annotated with its (exact or sampled) result cardinality.

    ``truth_mode`` records how the label was obtained: ``"exact"`` labels are
    true counts; ``"sampled"`` labels are multiplicity-corrected estimates
    whose confidence interval is in ``bounds``.  Both extra fields default to
    the exact convention, so pre-existing call sites and the two-element
    unpacking protocol are unchanged.
    """

    query: Query
    cardinality: int
    truth_mode: str = "exact"
    bounds: tuple[float, float] | None = None

    def __iter__(self) -> Iterator:
        # Allows ``query, cardinality = labelled`` unpacking and keeps the
        # (query, cardinality) tuple convention used by the file format.
        return iter((self.query, self.cardinality))

    @property
    def num_joins(self) -> int:
        return self.query.num_joins


_TRUTH_MODES = ("auto", "exact", "sampled")


@dataclass(frozen=True)
class WorkloadConfig:
    """Configuration of the random query generator.

    The ``truth_*`` knobs select the ground-truth oracle: ``"exact"`` always
    executes queries in full, ``"sampled"`` always labels from bounded
    per-table samples (:class:`~repro.db.sampled.SampledCardinalityExecutor`),
    and ``"auto"`` — the default — samples only queries whose referenced
    tables sum to more than ``truth_row_budget`` rows, so small snapshots keep
    exact labels with zero behaviour change.

    ``label_workers`` fans truth labeling across that many threads (``None``
    or 1 = serial, on the calling thread): queries are still drawn serially
    from the RNG and deduplicated in draw order, but candidate batches are
    labelled concurrently through the thread-safe executors.
    Labels are pure functions of the immutable snapshot, acceptance is
    decided in draw order, and the workload is truncated at the target — so
    the generated workload is **identical at any worker count**, including
    serial.
    """

    num_queries: int = 1000
    min_joins: int = 0
    max_joins: int = 2
    max_predicates_per_table: int | None = None
    skip_empty_results: bool = True
    seed: int = 0
    max_attempts_factor: int = 50
    predicate_tables: tuple[str, ...] = field(default_factory=tuple)
    truth_mode: str = "auto"
    truth_row_budget: int = 5_000_000
    truth_sample_rows: int = 100_000
    label_workers: int | None = None

    def __post_init__(self) -> None:
        if self.num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if not 0 <= self.min_joins <= self.max_joins:
            raise ValueError("join bounds must satisfy 0 <= min_joins <= max_joins")
        if self.truth_mode not in _TRUTH_MODES:
            raise ValueError(f"truth_mode must be one of {_TRUTH_MODES}")
        if self.truth_row_budget <= 0:
            raise ValueError("truth_row_budget must be positive")
        if self.truth_sample_rows <= 0:
            raise ValueError("truth_sample_rows must be positive")
        if self.label_workers is not None and (
            isinstance(self.label_workers, bool)
            or not isinstance(self.label_workers, int)
            or self.label_workers < 1
        ):
            raise ValueError(
                "label_workers must be None or a positive integer, "
                f"got {self.label_workers!r}"
            )


class QueryGenerator:
    """Generates labelled random queries against a database snapshot."""

    def __init__(self, database: Database, config: WorkloadConfig | None = None):
        self.database = database
        self.config = config if config is not None else WorkloadConfig()
        self.schema = database.schema
        self._executor = CardinalityExecutor(database)
        self._sampled_executor: "SampledCardinalityExecutor | None" = None
        self._rng = spawn_rng(self.config.seed, "query-generator")
        self._join_graph_tables = self.schema.tables_in_join_graph() or self.schema.table_names
        self._component_sizes = self.schema.join_component_sizes() or {
            table: 1 for table in self._join_graph_tables
        }
        # A join tree with k joins needs k + 1 tables inside one connected
        # component, so the largest component bounds the satisfiable draw.
        self._max_supported_joins = max(self._component_sizes.values()) - 1
        if self.config.min_joins > self._max_supported_joins:
            raise ValueError(
                f"the join graph supports at most {self._max_supported_joins} joins "
                f"per query, so min_joins={self.config.min_joins} cannot be satisfied"
            )

    # ------------------------------------------------------------------
    def generate(self, num_queries: int | None = None) -> list[LabelledQuery]:
        """Generate ``num_queries`` unique, non-empty labelled queries.

        Raises ``RuntimeError`` if the generator cannot find enough unique
        non-empty queries within a bounded number of attempts (which would
        indicate a database far too small for the requested workload size).

        Labeling is fanned across ``config.label_workers`` threads in batches;
        every label of a batch finishes before the batch is accepted, and the
        first failing label in draw order propagates.  Drawing stays serial
        (the RNG stream is shared and labels never feed back into draws),
        candidates are accepted in draw order and the list is truncated at
        the target — so the output is identical to the serial generator at
        every worker count.
        """
        target = num_queries if num_queries is not None else self.config.num_queries
        labelled: list[LabelledQuery] = []
        seen: set[tuple] = set()
        attempts = 0
        max_attempts = max(target * self.config.max_attempts_factor, 1000)
        while len(labelled) < target and attempts < max_attempts:
            batch: list[Query] = []
            want = target - len(labelled)
            while len(batch) < want and attempts < max_attempts:
                attempts += 1
                query = self._draw_query()
                signature = query.signature()
                if signature in seen:
                    continue
                seen.add(signature)
                batch.append(query)
            if not batch:
                continue
            if any(self._should_sample(query) for query in batch):
                # Materialize the sampled oracle up front: lazy first-use
                # construction must not race across labeling threads.
                self._sampled()
            for entry in self._label_batch(batch):
                if self.config.skip_empty_results and entry.cardinality == 0:
                    continue
                if len(labelled) < target:
                    labelled.append(entry)
        if len(labelled) < target:
            raise RuntimeError(
                f"could only generate {len(labelled)} of {target} unique non-empty queries "
                f"after {attempts} attempts; use a larger database or fewer queries"
            )
        return labelled

    def _label_batch(self, batch: list[Query]) -> list[LabelledQuery]:
        """Labels of ``batch`` in draw order, on ``label_workers`` threads."""
        workers = min(self.config.label_workers or 1, len(batch))
        if workers == 1:
            return list(map(self._label, batch))
        # One contiguous chunk per thread: one task per query labelled 1,000
        # imdb queries 1.3-1.5x slower on 2 threads (2-core host).
        size = -(-len(batch) // workers)
        chunks = [batch[start : start + size] for start in range(0, len(batch), size)]
        # Leaving the block joins every thread, also when a label raised.
        with ThreadPoolExecutor(workers, thread_name_prefix="truth-label") as pool:
            labelled = pool.map(lambda chunk: list(map(self._label, chunk)), chunks)
            return [entry for chunk in labelled for entry in chunk]

    # -- ground-truth oracle routing -----------------------------------
    def _should_sample(self, query: Query) -> bool:
        mode = self.config.truth_mode
        if mode == "exact":
            return False
        if mode == "sampled":
            return True
        referenced_rows = sum(
            self.database.table(table).num_rows for table in query.tables
        )
        return referenced_rows > self.config.truth_row_budget

    def _sampled(self) -> "SampledCardinalityExecutor":
        """The sampled-truth oracle, built lazily on first sampled query."""
        if self._sampled_executor is None:
            from repro.db.sampled import SampledCardinalityExecutor

            self._sampled_executor = SampledCardinalityExecutor(
                self.database,
                sample_rows=self.config.truth_sample_rows,
                seed=self.config.seed,
            )
        return self._sampled_executor

    def _label(self, query: Query) -> LabelledQuery:
        if self._should_sample(query):
            result = self._sampled().execute(query)
            if result.exact:
                # Every referenced table fit the sample budget whole, so the
                # sampled oracle's count is already the true cardinality.
                return LabelledQuery(query=query, cardinality=result.label)
            return LabelledQuery(
                query=query,
                cardinality=result.label,
                truth_mode="sampled",
                bounds=(result.lower, result.upper),
            )
        return LabelledQuery(query=query, cardinality=self._executor.execute(query))

    # ------------------------------------------------------------------
    def _draw_query(self) -> Query:
        # Clamp the upper bound to what the join graph can actually connect;
        # drawing an unreachable count would silently shrink the join tree and
        # skew the per-join-count buckets of the generated workload.
        upper = min(self.config.max_joins, self._max_supported_joins)
        num_joins = int(self._rng.integers(self.config.min_joins, upper + 1))
        tables, joins = self._draw_join_tree(num_joins)
        predicates = self._draw_predicates(tables)
        return Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(predicates))

    def _draw_join_tree(self, num_joins: int) -> tuple[list[str], list[JoinCondition]]:
        # Only tables whose component holds at least ``num_joins + 1`` tables
        # can seed a tree of the requested size; growth within a component
        # never stalls (a connected component always has an edge from the
        # current table set to the remaining tables), but a wrongly-sized
        # start table would.  Resample among eligible starts defensively.
        eligible = [
            table
            for table in self._join_graph_tables
            if self._component_sizes[table] > num_joins
        ]
        while eligible:
            position = int(self._rng.integers(len(eligible)))
            start = str(eligible.pop(position))
            tables = [start]
            joins: list[JoinCondition] = []
            for _ in range(num_joins):
                candidates = self._joinable_candidates(tables)
                if not candidates:
                    break
                new_table, anchor = candidates[int(self._rng.integers(len(candidates)))]
                edge = self.schema.join_edge_between(anchor, new_table)
                joins.append(JoinCondition.from_foreign_key(edge))
                tables.append(new_table)
            if len(joins) == num_joins:
                return tables, joins
        raise RuntimeError(
            f"no start table can seed a join tree with {num_joins} joins; "
            "the join graph cannot satisfy the configured join bounds"
        )

    def _joinable_candidates(self, tables: list[str]) -> list[tuple[str, str]]:
        """(new_table, anchor_table) pairs reachable from the current table set."""
        present = set(tables)
        candidates = []
        for anchor in tables:
            for neighbour in self.schema.joinable_tables(anchor):
                if neighbour not in present:
                    candidates.append((neighbour, anchor))
        return candidates

    def _draw_predicates(self, tables: list[str]) -> list[Predicate]:
        predicates: list[Predicate] = []
        allowed = set(self.config.predicate_tables) if self.config.predicate_tables else None
        for table_name in tables:
            if allowed is not None and table_name not in allowed:
                continue
            non_key_columns = self.schema.table(table_name).non_key_columns
            if not non_key_columns:
                continue
            upper = len(non_key_columns)
            if self.config.max_predicates_per_table is not None:
                upper = min(upper, self.config.max_predicates_per_table)
            num_predicates = int(self._rng.integers(0, upper + 1))
            if num_predicates == 0:
                continue
            columns = self._rng.choice(
                non_key_columns, size=num_predicates, replace=False
            )
            for column in columns:
                predicates.append(self._draw_predicate(table_name, str(column)))
        return predicates

    def _draw_predicate(self, table_name: str, column: str) -> Predicate:
        operator = _OPERATORS[int(self._rng.integers(len(_OPERATORS)))]
        values = self.database.table(table_name).column(column)
        literal = int(values[int(self._rng.integers(len(values)))])
        return Predicate(table=table_name, column=column, operator=operator, value=literal)


def generate_training_workload(
    spec: "DatasetSpec",
    database: Database,
    num_queries: int | None = None,
    seed: int = 0,
    **overrides,
) -> list[LabelledQuery]:
    """Labelled training queries following a dataset spec's recommendation.

    Uses the spec's recommended join bound and workload size (overridable via
    ``num_queries`` and any :class:`WorkloadConfig` field), so the same call
    works for every registered dataset regardless of its join topology.
    """
    config = spec.training_workload_config(num_queries, seed, **overrides)
    return QueryGenerator(database, config).generate()


def generate_evaluation_workload(
    spec: "DatasetSpec",
    database: Database,
    num_queries: int | None = None,
    seed: int = 1,
    **overrides,
) -> list[LabelledQuery]:
    """The evaluation twin of :func:`generate_training_workload`.

    Same generator and join bound as training, different seed — the paper's
    "synthetic" evaluation workload, for any registered dataset.
    """
    config = spec.evaluation_workload_config(num_queries, seed, **overrides)
    return QueryGenerator(database, config).generate()


def split_by_joins(workload: list[LabelledQuery]) -> dict[int, list[LabelledQuery]]:
    """Group a workload by join count (used for Table 1 and the box plots)."""
    grouped: dict[int, list[LabelledQuery]] = {}
    for labelled in workload:
        grouped.setdefault(labelled.num_joins, []).append(labelled)
    return dict(sorted(grouped.items()))


__all__.extend(
    ["generate_training_workload", "generate_evaluation_workload", "split_by_joins"]
)
