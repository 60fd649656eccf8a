"""Predicate evaluation over columnar tables.

The paper restricts predicates to the form ``(column, op, value)`` with
``op ∈ {=, <, >}`` (Section 3.1); this module evaluates single predicates and
conjunctions of them as boolean masks over a table or over an arbitrary row
subset (the latter is what sampling-based estimators need).
"""

from __future__ import annotations

import enum
from typing import Iterable, Sequence

import numpy as np

from repro.db.table import Table

__all__ = [
    "Operator",
    "evaluate_predicate",
    "evaluate_conjunction",
    "selection_mask",
]


class Operator(str, enum.Enum):
    """Comparison operators supported by the paper's query language."""

    EQ = "="
    LT = "<"
    GT = ">"

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        for operator in cls:
            if operator.value == symbol:
                return operator
        raise ValueError(f"unknown operator symbol {symbol!r}")

    def __str__(self) -> str:
        return self.value


def _compare(values: np.ndarray, operator: Operator, literal: int) -> np.ndarray:
    if operator is Operator.EQ:
        return values == literal
    if operator is Operator.LT:
        return values < literal
    if operator is Operator.GT:
        return values > literal
    raise ValueError(f"unsupported operator {operator!r}")  # pragma: no cover


def evaluate_predicate(
    table: Table,
    column: str,
    operator: Operator,
    value: int,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean qualification mask of a single predicate.

    When ``rows`` is given, the mask refers to those row indices (in order)
    instead of the full table.
    """
    values = table.column_values(column, rows)
    return _compare(values, operator, int(value))


def evaluate_conjunction(
    table: Table,
    predicates: Iterable[tuple[str, Operator, int]],
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Boolean mask of a conjunction of predicates over one table."""
    predicates = list(predicates)
    length = table.num_rows if rows is None else len(rows)
    mask = np.ones(length, dtype=bool)
    for column, operator, value in predicates:
        mask &= evaluate_predicate(table, column, operator, value, rows)
        if not mask.any():
            break
    return mask


def selection_mask(table: Table, predicates: Sequence) -> np.ndarray:
    """Full-table qualification mask for a sequence of :class:`Predicate`-likes.

    Accepts any objects exposing ``column``, ``operator`` and ``value``
    attributes (e.g. :class:`repro.db.query.Predicate`).
    """
    return evaluate_conjunction(table, [(p.column, p.operator, p.value) for p in predicates])
