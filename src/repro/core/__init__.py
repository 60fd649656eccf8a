"""The paper's contribution: the multi-set convolutional network (MSCN).

The sub-modules follow the pipeline of Section 3:

* :mod:`repro.core.encoding` — one-hot vocabularies for tables, joins,
  columns and operators derived from the schema (Section 3.1),
* :mod:`repro.core.normalization` — min/max normalization of predicate
  literals and log + min/max normalization of target cardinalities,
* :mod:`repro.core.featurization` — query → (table set, join set, predicate
  set) feature vectors, optionally enriched with materialized-sample counts
  or bitmaps (Section 3.4),
* :mod:`repro.core.batching` — the ragged (CSR) layout of variable-sized
  sets and its mini-batches (Section 3.2, without padding),
* :mod:`repro.core.model` — the MSCN architecture,
* :mod:`repro.core.trainer` — training / validation loop with the paper's
  loss functions,
* :mod:`repro.core.estimator` — the public :class:`MSCNEstimator` façade.
"""

from repro.core.config import FeaturizationVariant, MSCNConfig
from repro.core.ensemble import EnsembleEstimate, EnsembleMSCNEstimator
from repro.core.estimator import MSCNEstimator
from repro.core.featurization import FeaturizedQuery, QueryFeaturizer
from repro.core.model import MSCN
from repro.core.trainer import MSCNTrainer, TrainingResult

__all__ = [
    "MSCNConfig",
    "FeaturizationVariant",
    "MSCNEstimator",
    "EnsembleMSCNEstimator",
    "EnsembleEstimate",
    "QueryFeaturizer",
    "FeaturizedQuery",
    "MSCN",
    "MSCNTrainer",
    "TrainingResult",
]
