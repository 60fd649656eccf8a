"""Table 1: distribution of joins in the three evaluation workloads.

The paper's Table 1 reports how many queries of each workload (synthetic,
scale, JOB-light) have 0-4 joins.  This benchmark regenerates the same table
for the reproduction's workloads and measures workload generation cost.
"""

from __future__ import annotations

import pytest

from repro.evaluation.reporting import format_workload_distribution
from repro.workload.generator import split_by_joins
from repro.workload.job_light import JobLightConfig, generate_job_light
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


@pytest.fixture(scope="module")
def scale_workload(scenario):
    config = ScaleWorkloadConfig(
        queries_per_join_count=scenario.config.scale_queries_per_join_count, max_joins=4, seed=103
    )
    return generate_scale_workload(scenario.database, config)


@pytest.fixture(scope="module")
def job_light_workload(scenario):
    return generate_job_light(scenario.database, JobLightConfig(seed=7))


def test_table1_join_distribution(
    scenario, synthetic_workload, scale_workload, job_light_workload, write_result, benchmark
):
    synthetic = synthetic_workload

    def build_table() -> str:
        return format_workload_distribution(
            {
                "synthetic": synthetic,
                "scale": scale_workload,
                "JOB-light": job_light_workload,
            },
            max_joins=4,
        )

    table = benchmark(build_table)
    write_result("table1_workload_distribution", table)

    # Structural checks mirroring the paper's Table 1.
    synthetic_groups = split_by_joins(synthetic)
    assert set(synthetic_groups) <= {0, 1, 2}
    scale_groups = split_by_joins(scale_workload)
    assert set(scale_groups) == {0, 1, 2, 3, 4}
    assert all(
        len(queries) == scenario.config.scale_queries_per_join_count
        for queries in scale_groups.values()
    )
    job_groups = split_by_joins(job_light_workload)
    assert set(job_groups) == {1, 2, 3, 4}
    assert {count: len(queries) for count, queries in job_groups.items()} == {
        1: 3,
        2: 32,
        3: 23,
        4: 12,
    }


def test_table1_workload_generation_cost(scenario, benchmark):
    """Cost of labelling 100 random training queries (Section 3.3 pipeline)."""
    from repro.workload.generator import QueryGenerator, WorkloadConfig

    def label_hundred_queries():
        generator = QueryGenerator(
            scenario.database, WorkloadConfig(num_queries=100, max_joins=2, seed=555)
        )
        return generator.generate()

    workload = benchmark.pedantic(label_hundred_queries, rounds=1, iterations=1)
    assert len(workload) == 100
