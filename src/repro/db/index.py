"""Hash indexes over key columns.

Index-Based Join Sampling (Leis et al., CIDR 2017) — the paper's strongest
baseline — probes qualifying base-table sample tuples against existing index
structures on join keys.  :class:`HashIndex` provides the equality-lookup
index and :class:`IndexSet` builds one for any primary- or foreign-key
column of a database on first use, which is the "indexes covering the entire
database" setting the paper grants the sampling baselines.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.db.table import Database, Table

__all__ = ["HashIndex", "IndexSet"]


class HashIndex:
    """An equality index mapping column values to the rows containing them."""

    def __init__(self, table: Table, column: str):
        self.table_name = table.name
        self.column = column
        values = table.column(column)
        buckets: dict[int, list[int]] = defaultdict(list)
        for row, value in enumerate(values.tolist()):
            buckets[value].append(row)
        self._buckets = {value: np.asarray(rows, dtype=np.int64) for value, rows in buckets.items()}
        self.num_rows = table.num_rows

    def lookup(self, value: int) -> np.ndarray:
        """Row indices whose column equals ``value`` (empty array if none)."""
        return self._buckets.get(int(value), np.empty(0, dtype=np.int64))

    def num_distinct(self) -> int:
        return len(self._buckets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashIndex({self.table_name}.{self.column}, keys={len(self._buckets)})"


class IndexSet:
    """All PK/FK hash indexes of a database, built lazily on first access."""

    def __init__(self, database: Database):
        self.database = database
        self._indexes: dict[tuple[str, str], HashIndex] = {}

    def index(self, table: str, column: str) -> HashIndex:
        """The hash index on ``table.column``, building it on first use."""
        key = (table, column)
        if key not in self._indexes:
            self._indexes[key] = HashIndex(self.database.table(table), column)
        return self._indexes[key]
