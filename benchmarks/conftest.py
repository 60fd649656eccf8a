"""Shared state for the paper-suite benchmarks.

All benchmarks share one IMDb :class:`~repro.evaluation.scenarios.Scenario`
(see the README section "Running the benchmarks"): the synthetic database,
the materialized samples, the labelled workloads and the trained MSCN models
are built once per session and reused, so each benchmark measures only the
experiment-specific work.  The suite's sizes live here and nowhere else:

* ``DATABASE`` — an explicitly sized IMDb snapshot (the imdb spec's scale
  tiers size all tables together and cannot produce it);
* ``SUITE`` — workload sizes, sample size and seeds;
* ``MSCN`` — the model every benchmark trains unless it varies one field.

Every benchmark writes the paper-style table it regenerates to
``benchmarks/results/<experiment>.txt`` (and echoes it to stdout)::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-disable -q
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.core.config import MSCNConfig
from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.evaluation.scenarios import Scenario, ScenarioConfig
from repro.workload.generator import LabelledQuery

RESULTS_DIRECTORY = Path(__file__).parent / "results"

# The per-query reference featurization lives with the tests; section 4.7
# measures featurize_ragged against it.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

DATABASE = SyntheticIMDbConfig(
    num_titles=20_000, num_companies=2_500, num_persons=30_000, num_keywords=8_000, seed=42
)
SUITE = ScenarioConfig(
    datasets=("imdb",),
    num_training_queries=10_000,
    num_eval_queries=800,
    sample_size=100,
    scale_queries_per_join_count=40,
)
MSCN = MSCNConfig(hidden_units=128, epochs=60, batch_size=256, num_samples=SUITE.sample_size)


@pytest.fixture(scope="session")
def scenario() -> Scenario:
    """The shared IMDb scenario (database, samples, workloads, trained models)."""
    (spec,) = SUITE.selected_specs()
    return Scenario(spec=spec, database=generate_imdb(DATABASE), config=SUITE)


@pytest.fixture(scope="session")
def mscn_config() -> MSCNConfig:
    """The suite's MSCN configuration (bitmaps variant)."""
    return MSCN


@pytest.fixture(scope="session")
def synthetic_workload(scenario) -> list[LabelledQuery]:
    """The paper's synthetic evaluation workload (Table 2)."""
    return scenario.evaluation_workloads["synthetic"]


@pytest.fixture(scope="session")
def write_result():
    """Write an experiment's textual report to benchmarks/results/ and stdout."""

    def _write(name: str, text: str) -> Path:
        os.makedirs(RESULTS_DIRECTORY, exist_ok=True)
        path = RESULTS_DIRECTORY / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n===== {name} =====\n{text}\n")
        return path

    return _write
