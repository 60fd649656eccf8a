"""The brute-force nested-loop count that every executor is tested against.

:func:`nested_loop_cardinality` enumerates the cross product of each table's
qualifying rows and checks every join condition row by row: exponential in
the number of tables, so it is only for tests on tiny tables, and it shares
nothing with :class:`~repro.db.executor.CardinalityExecutor` beyond the
predicate masks.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.db.predicates import selection_mask
from repro.db.query import Query
from repro.db.table import Database


def nested_loop_cardinality(database: Database, query: Query) -> int:
    """COUNT(*) of ``query`` by a nested loop over the qualifying rows."""
    query.validate_against(database.schema)
    tables = [database.table(name) for name in query.tables]
    qualifying = []
    for table in tables:
        predicates = query.predicates_on(table.name)
        mask = selection_mask(table, predicates) if predicates else np.ones(table.num_rows, bool)
        qualifying.append(np.flatnonzero(mask))
    count = 0
    table_positions = {table.name: position for position, table in enumerate(tables)}
    for combination in itertools.product(*qualifying):
        satisfied = True
        for join in query.joins:
            left_row = combination[table_positions[join.left_table]]
            right_row = combination[table_positions[join.right_table]]
            left_value = database.table(join.left_table).column(join.left_column)[left_row]
            right_value = database.table(join.right_table).column(join.right_column)[right_row]
            if left_value != right_value:
                satisfied = False
                break
        if satisfied:
            count += 1
    return count
