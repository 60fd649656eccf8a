"""Dataset generation and the schema-agnostic dataset registry.

The paper evaluates on a snapshot of the real Internet Movie Database (IMDb),
which cannot be downloaded in this offline environment;
:mod:`repro.datasets.imdb` generates a synthetic substitute with the same
star schema, skewed value distributions and — crucially — *join-crossing
correlations* (see the README section "Datasets & scenarios").

Because the paper's featurization claims to generalize to any PK/FK schema,
this package is organised around :class:`~repro.datasets.spec.DatasetSpec`:
a registrable bundle of schema, correlated generator, join-graph metadata
and recommended workload shape.  Three datasets ship built in:

* ``imdb`` — the dimension-hub star of the paper's evaluation,
* ``retail`` — a TPC-style fact-hub star (wide Zipf fan-outs, skewed
  dimensions, correlations between dimensions through the fact table),
* ``forum`` — a snowflake chain of join diameter 4 whose planted
  correlations span up to three join hops.

Look datasets up via :func:`~repro.datasets.registry.get_dataset`; register
new ones with :func:`~repro.datasets.registry.register_dataset`.
"""

from repro.datasets.forum import FORUM_SPEC, ForumConfig, forum_schema, generate_forum
from repro.datasets.imdb import (
    IMDB_SPEC,
    SyntheticIMDbConfig,
    generate_imdb,
    imdb_schema,
)
from repro.datasets.registry import (
    dataset_names,
    get_dataset,
    register_dataset,
    registered_datasets,
)
from repro.datasets.retail import (
    RETAIL_SPEC,
    RetailConfig,
    generate_retail,
    retail_schema,
)
from repro.datasets.spec import DatasetSpec, JoinGraphSummary, WorkloadRecommendation

__all__ = [
    "DatasetSpec",
    "JoinGraphSummary",
    "WorkloadRecommendation",
    "register_dataset",
    "get_dataset",
    "dataset_names",
    "registered_datasets",
    "SyntheticIMDbConfig",
    "generate_imdb",
    "imdb_schema",
    "IMDB_SPEC",
    "RetailConfig",
    "generate_retail",
    "retail_schema",
    "RETAIL_SPEC",
    "ForumConfig",
    "generate_forum",
    "forum_schema",
    "FORUM_SPEC",
]
