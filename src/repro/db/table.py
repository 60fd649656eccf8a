"""Columnar table storage.

Tables store each column as a contiguous ``int64`` numpy array.  All values
in this reproduction are integers (IDs, years, categorical codes), matching
the subset of IMDb the paper's workloads touch: JOB-light has no string
predicates and the training generator only draws numeric literals.

Every table is held in memory.  :attr:`Table.nbytes` /
:meth:`Database.memory_bytes` make the resident-size claims of the
large-scale tier measurable.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.db.schema import Schema, TableSchema

__all__ = ["Table", "Database"]


def _as_int64_column(table: str, name: str, values) -> np.ndarray:
    """Validate and convert one column to ``int64`` without silent data loss.

    Integer (and boolean) inputs convert exactly.  Floating-point inputs are
    accepted only when every value is finite and integral — a float column
    with fractional or non-finite values used to be silently truncated by
    ``astype(np.int64)``, turning e.g. ``2.5`` into ``2`` and ``NaN`` into an
    arbitrary sentinel.  Non-numeric dtypes are rejected outright.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"column {table}.{name} must be 1-D")
    if array.dtype == np.int64:
        return array
    if np.issubdtype(array.dtype, np.integer) or array.dtype == np.bool_:
        return array.astype(np.int64)
    if np.issubdtype(array.dtype, np.floating):
        if array.size and not np.isfinite(array).all():
            raise ValueError(
                f"column {table}.{name} contains non-finite values; "
                "integer columns cannot represent NaN/inf"
            )
        if array.size and (array != np.trunc(array)).any():
            raise ValueError(
                f"column {table}.{name} contains non-integral values; "
                "casting to int64 would silently truncate them"
            )
        return array.astype(np.int64)
    raise ValueError(
        f"column {table}.{name} has non-numeric dtype {array.dtype!r}; "
        "tables store int64 values only"
    )


class Table:
    """A single relation stored column-wise.

    Parameters
    ----------
    schema:
        The table's :class:`~repro.db.schema.TableSchema`.
    columns:
        Mapping from column name to a 1-D integer-valued array.  All columns
        must have identical length and exactly the schema's columns must be
        provided.  Floating-point input is accepted only when integer-safe
        (finite and integral); anything lossy raises ``ValueError``.
    """

    def __init__(self, schema: TableSchema, columns: Mapping[str, np.ndarray]):
        expected = set(schema.column_names)
        provided = set(columns)
        if expected != provided:
            raise ValueError(
                f"table {schema.name!r}: column mismatch; "
                f"missing={sorted(expected - provided)} unexpected={sorted(provided - expected)}"
            )
        arrays = {}
        lengths = set()
        for name in schema.column_names:
            array = _as_int64_column(schema.name, name, columns[name])
            arrays[name] = array
            lengths.add(array.shape[0])
        if len(lengths) > 1:
            raise ValueError(f"table {schema.name!r}: columns have differing lengths {lengths}")
        self.schema = schema
        self._columns = arrays
        self.num_rows = lengths.pop() if lengths else 0

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def nbytes(self) -> int:
        """Bytes of column storage held by this table."""
        return sum(array.nbytes for array in self._columns.values())

    def column(self, name: str) -> np.ndarray:
        """The full column array (no copy)."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    def column_values(self, name: str, rows: np.ndarray | None = None) -> np.ndarray:
        """Column values restricted to ``rows`` (row indices), if given."""
        column = self.column(name)
        if rows is None:
            return column
        return column[rows]

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table(name={self.name!r}, rows={self.num_rows})"


class Database:
    """A named collection of :class:`Table` objects plus the global schema."""

    def __init__(self, schema: Schema, tables: Mapping[str, Table]):
        missing = set(schema.table_names) - set(tables)
        unexpected = set(tables) - set(schema.table_names)
        if missing or unexpected:
            raise ValueError(
                f"database tables do not match schema; missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        self.schema = schema
        self._tables = dict(tables)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"database has no table {name!r}") from None

    @property
    def table_names(self) -> tuple[str, ...]:
        return self.schema.table_names

    def total_rows(self) -> int:
        """Total number of tuples across all tables."""
        return sum(table.num_rows for table in self._tables.values())

    def memory_bytes(self) -> int:
        """Total bytes of column storage across all tables."""
        return sum(table.nbytes for table in self._tables.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = ", ".join(f"{name}={len(self.table(name))}" for name in self.table_names)
        return f"Database({sizes})"
