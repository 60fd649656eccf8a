"""Reproduction of *Learned Cardinalities: Estimating Correlated Joins with
Deep Learning* (Kipf et al., CIDR 2019).

The package is organised as a set of substrates plus the paper's core
contribution:

``repro.nn``
    The numpy pieces MSCN's hand-derived training kernel builds on: the
    affine layer, the set-pooling kernel, Adam, and the loss functions with
    their gradients.
``repro.db``
    An in-memory columnar relational engine: schema, predicates, joins, a
    COUNT(*) executor used to label queries with true cardinalities,
    materialized samples / bitmaps, hash indexes and per-column statistics.
``repro.datasets``
    A synthetic, correlated IMDb-like database generator (the paper's
    evaluation dataset is the real IMDb snapshot, which is not redistributable
    here; see the README section "Datasets & scenarios").
``repro.workload``
    The paper's random query generator (Section 3.3), the *scale* workload and
    a JOB-light-style workload.
``repro.core``
    The multi-set convolutional network: featurization, normalization,
    ragged mini-batches, the model itself, the trainer and the public
    :class:`~repro.core.estimator.MSCNEstimator`.
``repro.estimators``
    Baselines: a PostgreSQL-style histogram estimator, Random Sampling and
    Index-Based Join Sampling, plus a true-cardinality oracle.
``repro.evaluation``
    Q-error metrics, workload runners and paper-style report formatting.
``repro.optimizer``
    The downstream consumer the paper targets: DPsize join-order enumeration
    over connected subgraphs, a C_out cost model and plan-quality metrics
    (cost of the plan chosen under estimated cardinalities vs. the
    true-cardinality-optimal plan).
``repro.serving``
    The traffic-facing estimation service: signature-keyed result caching,
    micro-batch coalescing of concurrent callers, uncertainty-routed fallback
    to traditional estimators and a versioned model registry with atomic
    hot-swap.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers only
    from repro.core.estimator import MSCNEstimator
    from repro.core.config import MSCNConfig, FeaturizationVariant
    from repro.db.query import Query, JoinCondition, Predicate
    from repro.db.schema import Schema, TableSchema, ColumnSchema, ForeignKey
    from repro.db.table import Database, Table
    from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
    from repro.datasets.registry import dataset_names, get_dataset, register_dataset
    from repro.datasets.spec import DatasetSpec, WorkloadRecommendation
    from repro.evaluation.metrics import QErrorSummary, q_error, summarize_q_errors
    from repro.optimizer import (
        JoinTree,
        Plan,
        enumerate_optimal_plan,
        evaluate_plan_quality,
    )
    from repro.serving import EstimationService, ModelRegistry, ServiceConfig
    from repro.workload.generator import QueryGenerator, WorkloadConfig

__version__ = "1.0.0"

# The public surface is imported lazily (PEP 562): benchmark entry points must
# be able to import numpy-free utilities (``repro.utils.bench.pin_blas_threads``)
# through the package *before* numpy is loaded, so the package import itself
# cannot eagerly pull in the numpy-backed subsystems.
_EXPORTS = {
    "MSCNEstimator": "repro.core.estimator",
    "MSCNConfig": "repro.core.config",
    "FeaturizationVariant": "repro.core.config",
    "Query": "repro.db.query",
    "JoinCondition": "repro.db.query",
    "Predicate": "repro.db.query",
    "Schema": "repro.db.schema",
    "TableSchema": "repro.db.schema",
    "ColumnSchema": "repro.db.schema",
    "ForeignKey": "repro.db.schema",
    "Database": "repro.db.table",
    "Table": "repro.db.table",
    "SyntheticIMDbConfig": "repro.datasets.imdb",
    "generate_imdb": "repro.datasets.imdb",
    "dataset_names": "repro.datasets.registry",
    "get_dataset": "repro.datasets.registry",
    "register_dataset": "repro.datasets.registry",
    "DatasetSpec": "repro.datasets.spec",
    "WorkloadRecommendation": "repro.datasets.spec",
    "QErrorSummary": "repro.evaluation.metrics",
    "q_error": "repro.evaluation.metrics",
    "summarize_q_errors": "repro.evaluation.metrics",
    "JoinTree": "repro.optimizer",
    "Plan": "repro.optimizer",
    "enumerate_optimal_plan": "repro.optimizer",
    "evaluate_plan_quality": "repro.optimizer",
    "EstimationService": "repro.serving",
    "ModelRegistry": "repro.serving",
    "ServiceConfig": "repro.serving",
    "QueryGenerator": "repro.workload.generator",
    "WorkloadConfig": "repro.workload.generator",
}


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so subsequent lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

__all__ = [
    "MSCNEstimator",
    "MSCNConfig",
    "FeaturizationVariant",
    "Query",
    "JoinCondition",
    "Predicate",
    "Schema",
    "TableSchema",
    "ColumnSchema",
    "ForeignKey",
    "Database",
    "Table",
    "SyntheticIMDbConfig",
    "generate_imdb",
    "DatasetSpec",
    "WorkloadRecommendation",
    "register_dataset",
    "get_dataset",
    "dataset_names",
    "QErrorSummary",
    "q_error",
    "summarize_q_errors",
    "JoinTree",
    "Plan",
    "enumerate_optimal_plan",
    "evaluate_plan_quality",
    "QueryGenerator",
    "WorkloadConfig",
    "EstimationService",
    "ServiceConfig",
    "ModelRegistry",
    "__version__",
]
