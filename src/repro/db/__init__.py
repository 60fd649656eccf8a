"""An in-memory columnar relational engine.

This substrate plays the role that PostgreSQL / HyPer and the IMDb snapshot
play in the paper: it stores integer-valued relations column-wise, evaluates
predicates and PK/FK joins to produce *true* cardinalities (used as training
labels and evaluation ground truth), maintains materialized per-table samples
and bitmaps (the paper's Section 3.4 features), hash indexes (needed by
Index-Based Join Sampling) and per-column statistics (needed by the
PostgreSQL-style baseline).
"""

from repro.db.executor import CardinalityExecutor
from repro.db.index import HashIndex, IndexSet
from repro.db.predicates import (
    Operator,
    evaluate_conjunction,
    evaluate_predicate,
)
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.sampled import SampledCardinality, SampledCardinalityExecutor
from repro.db.sampling import MaterializedSamples, TableSample
from repro.db.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.db.sql import (
    format_workload_line,
    load_workload,
    parse_workload_line,
    query_to_sql,
    save_workload,
)
from repro.db.statistics import ColumnStatistics, DatabaseStatistics, TableStatistics
from repro.db.table import Database, Table

__all__ = [
    "ColumnSchema",
    "TableSchema",
    "ForeignKey",
    "Schema",
    "Table",
    "Database",
    "Operator",
    "Predicate",
    "JoinCondition",
    "Query",
    "evaluate_predicate",
    "evaluate_conjunction",
    "CardinalityExecutor",
    "SampledCardinality",
    "SampledCardinalityExecutor",
    "MaterializedSamples",
    "TableSample",
    "HashIndex",
    "IndexSet",
    "ColumnStatistics",
    "TableStatistics",
    "DatabaseStatistics",
    "query_to_sql",
    "format_workload_line",
    "parse_workload_line",
    "load_workload",
    "save_workload",
]
