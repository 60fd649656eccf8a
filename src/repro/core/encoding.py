"""One-hot vocabularies for tables, joins, columns and operators.

Section 3.1: each table and each join is represented by a unique one-hot
vector; predicate columns and operators are one-hot encoded as well, and the
predicate literal is appended as a value normalized to [0, 1] using the
column's min/max.  The vocabularies are derived from the schema alone — the
schema's declared table order, its foreign keys and its non-key columns; no
dataset-specific constants — so an unseen query can always be encoded as
long as it references known schema objects, and any registered
:class:`~repro.datasets.spec.DatasetSpec` yields a valid encoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db.predicates import Operator
from repro.db.schema import Schema

__all__ = ["SchemaEncoding"]


@dataclass(frozen=True)
class SchemaEncoding:
    """Index assignments for every one-hot encodable schema object."""

    table_index: dict[str, int]
    join_index: dict[str, int]
    column_index: dict[str, int]
    operator_index: dict[str, int]

    @classmethod
    def from_schema(cls, schema: Schema) -> "SchemaEncoding":
        table_index = {name: position for position, name in enumerate(schema.table_names)}
        join_index = {
            foreign_key.join_key: position
            for position, foreign_key in enumerate(schema.join_edges())
        }
        column_index = {
            f"{table}.{column}": position
            for position, (table, column) in enumerate(schema.non_key_columns())
        }
        operator_index = {operator.value: position for position, operator in enumerate(Operator)}
        return cls(
            table_index=table_index,
            join_index=join_index,
            column_index=column_index,
            operator_index=operator_index,
        )

    # -- dimensions ------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.table_index)

    @property
    def num_joins(self) -> int:
        return len(self.join_index)

    @property
    def num_columns(self) -> int:
        return len(self.column_index)

    @property
    def num_operators(self) -> int:
        return len(self.operator_index)
