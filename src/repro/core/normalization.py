"""Value and label normalization (Section 3.1 / 3.2 of the paper).

* Predicate literals are normalized to ``[0, 1]`` using the minimum and
  maximum value of the respective column (:class:`ValueNormalizer` holds
  the bounds; :class:`~repro.core.featurization.QueryFeaturizer` applies
  them).
* Target cardinalities are first log-transformed ("to more evenly distribute
  target values") and then min/max-normalized to ``[0, 1]`` using bounds
  obtained from the training set (:class:`CardinalityNormalizer`).  The
  transformation is invertible so predictions can be mapped back to
  cardinalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.table import Database

__all__ = ["ValueNormalizer", "CardinalityNormalizer"]


class ValueNormalizer:
    """Per-column min/max bounds for normalizing predicate literals."""

    def __init__(self, bounds: dict[str, tuple[float, float]]):
        self._bounds = dict(bounds)

    @classmethod
    def from_database(cls, database: Database) -> "ValueNormalizer":
        """Collect min/max bounds for every non-key column of the database."""
        bounds: dict[str, tuple[float, float]] = {}
        for table_name, column in database.schema.non_key_columns():
            values = database.table(table_name).column(column)
            if values.size:
                bounds[f"{table_name}.{column}"] = (float(values.min()), float(values.max()))
            else:
                bounds[f"{table_name}.{column}"] = (0.0, 1.0)
        return cls(bounds)

    def bounds(self, table: str, column: str) -> tuple[float, float]:
        key = f"{table}.{column}"
        try:
            return self._bounds[key]
        except KeyError:
            raise KeyError(f"no value bounds recorded for column {key!r}") from None

    def to_dict(self) -> dict[str, tuple[float, float]]:
        return dict(self._bounds)


@dataclass(frozen=True)
class CardinalityNormalizer:
    """Invertible log + min/max normalization of target cardinalities."""

    min_log: float
    max_log: float

    @classmethod
    def fit(cls, cardinalities: np.ndarray) -> "CardinalityNormalizer":
        """Fit normalization bounds on the training-set cardinalities."""
        cardinalities = np.asarray(cardinalities, dtype=np.float64)
        if cardinalities.size == 0:
            raise ValueError("cannot fit a CardinalityNormalizer on an empty label set")
        if (cardinalities < 1).any():
            raise ValueError("cardinalities must be >= 1 (empty results are skipped upstream)")
        logs = np.log(cardinalities)
        min_log = float(logs.min())
        max_log = float(logs.max())
        if max_log <= min_log:
            # Degenerate training set where every query has the same result
            # size; widen the interval so normalization stays invertible.
            max_log = min_log + 1.0
        return cls(min_log=min_log, max_log=max_log)

    @property
    def scale(self) -> float:
        return self.max_log - self.min_log

    def normalize(self, cardinalities: np.ndarray | float) -> np.ndarray:
        """Map cardinalities to [0, 1] labels (values outside the fitted range
        map outside [0, 1]; the trainer never clamps labels)."""
        values = np.asarray(cardinalities, dtype=np.float64)
        return (np.log(np.maximum(values, 1.0)) - self.min_log) / self.scale

    def denormalize(self, labels: np.ndarray | float) -> np.ndarray:
        """Invert :meth:`normalize`, returning cardinalities (>= 1)."""
        labels = np.asarray(labels, dtype=np.float64)
        return np.maximum(np.exp(labels * self.scale + self.min_log), 1.0)
