"""Uncertainty estimation with deep ensembles (paper Section 5).

The paper's discussion singles out *uncertainty estimation* — knowing when to
trust the model — as the most appealing extension and cites deep ensembles
(Lakshminarayanan et al., 2017) as a candidate technique.  This module
implements that extension: an :class:`EnsembleMSCNEstimator` trains several
MSCN models that differ only in their weight-initialization / shuffling seed
and combines their predictions.

* The ensemble estimate is the geometric mean of the member estimates (the
  natural average for a quantity optimized under the q-error metric).
* The uncertainty signal is the *spread*: the maximum pairwise q-error
  between member estimates.  Members that disagree by a large factor indicate
  a query outside the training distribution (e.g. more joins than seen during
  training), which is exactly when the paper suggests falling back to a
  traditional estimator.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batching import RaggedDataset
from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.core.trainer import TrainingResult
from repro.db.query import Query
from repro.db.sampling import MaterializedSamples
from repro.db.table import Database
from repro.estimators.base import CardinalityEstimator
from repro.workload.generator import LabelledQuery

__all__ = ["EnsembleMSCNEstimator"]


class EnsembleMSCNEstimator(CardinalityEstimator):
    """An ensemble of independently initialized MSCN models.

    Parameters
    ----------
    database, config, samples:
        As for :class:`~repro.core.estimator.MSCNEstimator`; all members share
        the same materialized samples and featurization.
    num_members:
        Ensemble size (the deep-ensembles paper uses around five members).
    """

    name = "MSCN ensemble"

    def __init__(
        self,
        database: Database,
        config: MSCNConfig | None = None,
        samples: MaterializedSamples | None = None,
        num_members: int = 3,
    ):
        if num_members < 2:
            raise ValueError("an ensemble needs at least two members")
        self.config = config if config is not None else MSCNConfig()
        base_samples = samples
        self.members: list[MSCNEstimator] = []
        for member_index in range(num_members):
            member_config = self.config.replace(seed=self.config.seed + member_index)
            member = MSCNEstimator(database, member_config, samples=base_samples)
            # All members share one sample set so their featurizations agree.
            base_samples = member.samples if base_samples is None else base_samples
            self.members.append(member)
        self.name = f"MSCN ensemble ({num_members} members)"

    @property
    def samples(self) -> MaterializedSamples | None:
        """The sample set shared by every member (bitmap-cache accounting)."""
        return self.members[0].samples

    # ------------------------------------------------------------------
    def fit(self, training_queries: list[LabelledQuery]) -> list[TrainingResult]:
        """Train every member on the same labelled queries.

        All members share one sample set, encoding and compute dtype, so the
        (identical) featurizations are computed exactly once: the workload is
        split and featurized up front and the ragged datasets are handed to
        every member, mirroring the serving side's one-shot featurization.
        Members still differ in weight initialization and shuffling (their
        seeds), which is the deep-ensembles recipe.
        """
        lead = self.members[0]
        train_queries, validation_queries = lead._split_validation(training_queries)
        train_cardinalities = np.array(
            [q.cardinality for q in train_queries], dtype=np.float64
        )
        train_dataset = lead.featurizer.featurize_ragged(
            [q.query for q in train_queries], cardinalities=train_cardinalities
        )
        validation_dataset = None
        if validation_queries:
            validation_cardinalities = np.array(
                [q.cardinality for q in validation_queries], dtype=np.float64
            )
            validation_dataset = lead.featurizer.featurize_ragged(
                [q.query for q in validation_queries],
                cardinalities=validation_cardinalities,
            )
        return [
            member.fit(
                train_queries,
                validation_queries,
                train_dataset=train_dataset,
                validation_dataset=validation_dataset,
            )
            for member in self.members
        ]

    def estimate(self, query: Query) -> float:
        return float(self.estimate_many([query])[0])

    def serving_dataset(self, queries: Sequence[Query]) -> RaggedDataset:
        """Featurize serving traffic once for all members (shared layout)."""
        return self.members[0].serving_dataset(queries)

    def estimate_featurized(self, dataset: RaggedDataset) -> np.ndarray:
        """Geometric-mean ensemble estimates for a pre-featurized workload."""
        cardinalities, _, _ = self.estimate_featurized_with_uncertainty(dataset)
        return cardinalities

    def estimate_featurized_with_uncertainty(
        self, dataset: RaggedDataset
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ensemble estimates and spreads for a pre-featurized workload.

        Returns ``(cardinalities, spreads, per_member)``: the geometric-mean
        estimates (>= 1), the per-query maximum pairwise member q-error (the
        uncertainty signal, >= 1), and the raw ``(num_members, num_queries)``
        member estimates.  This is the vectorized form the serving layer uses
        to route low-confidence queries to a fallback estimator without
        featurizing the workload more than once.
        """
        per_member = np.vstack(
            [member.estimate_featurized(dataset) for member in self.members]
        )
        clamped = np.maximum(per_member, 1.0)
        cardinalities = np.maximum(np.exp(np.mean(np.log(clamped), axis=0)), 1.0)
        spreads = clamped.max(axis=0) / clamped.min(axis=0)
        return cardinalities, spreads, per_member

    def estimate_many(self, queries: Sequence[Query]) -> np.ndarray:
        """Geometric-mean ensemble estimates: the workload is featurized once
        (into the ragged serving layout) and that dataset feeds every member's
        forward pass."""
        if not queries:
            return np.empty(0, dtype=np.float64)
        return self.estimate_featurized(self.serving_dataset(queries))
