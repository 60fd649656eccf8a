"""CI smoke test of concurrent truth labeling and executor scan reuse.

Exercises the one thread-parallel path left in the repository, concurrent
truth labeling in the query generator, plus the executor's scan memo:

* **Labeling identity and throughput floor** — concurrent truth labeling
  (``WorkloadConfig.label_workers``) must generate exactly the serial
  workload, and on runners with >= 4 cores sustain at least
  ``MIN_LABELING_SPEEDUP`` the serial labeling throughput.  On smaller hosts
  (including 1-core containers) the floor degrades to "no pathological
  slowdown".
* **Scan reuse** — plan-enumeration-style sub-plan fan-outs must serve most
  base-table scans from the per-predicate-set memo, and memoized counts must
  equal fresh executions.

BLAS threading is pinned to one thread *before numpy loads*, so the labeling
threads are the only source of parallelism being measured.

Writes ``benchmarks/results/BENCH_smoke_parallel_execution.json`` (serial and
parallel labels/s, speedup, reuse rates) next to a ``.txt`` report.

Invoked as a plain script (``PYTHONPATH=src python
benchmarks/smoke_parallel_execution.py``) from CI next to the other smokes.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy is imported anywhere: the labeling
# threads are the parallelism under test, and a multi-threaded BLAS would
# both inflate the serial baseline and contend with the workers.
from repro.utils.bench import pin_blas_threads

pin_blas_threads()

import time
from dataclasses import replace
from pathlib import Path

from repro.datasets.imdb import SyntheticIMDbConfig, generate_imdb
from repro.db.executor import CardinalityExecutor
from repro.utils.bench import write_bench_json
from repro.workload.generator import QueryGenerator, WorkloadConfig

RESULTS_DIRECTORY = Path(__file__).parent / "results"
RESULTS_PATH = RESULTS_DIRECTORY / "smoke_parallel_execution.txt"

#: Parallel-vs-serial labeling throughput floor, enforced only on >= 4 cores.
MIN_LABELING_SPEEDUP = 2.0
#: Cores below this get the degraded floor (bit-identity + sanity only).
MIN_CORES_FOR_FLOOR = 4
#: On small hosts parallel labeling must at least not collapse under overhead.
MAX_SMALL_HOST_SLOWDOWN = 0.5
#: Sub-plan fan-outs must serve at least this fraction of scans from the memo.
MIN_SCAN_REUSE_RATE = 0.5
REPEATS = 3


def fingerprint(workload):
    return [
        (entry.query.signature(), entry.cardinality, entry.truth_mode, entry.bounds)
        for entry in workload
    ]


def best_labeling_rate(database, config, repeats: int = REPEATS):
    """Best-of-N labels/s of a fresh generator run; returns (rate, workload)."""
    best, workload = float("inf"), None
    for _ in range(repeats):
        generator = QueryGenerator(database, config)
        start = time.perf_counter()
        workload = generator.generate()
        best = min(best, time.perf_counter() - start)
    return len(workload) / best, workload


def main() -> int:
    cores = os.cpu_count() or 1
    database = generate_imdb(
        SyntheticIMDbConfig(
            num_titles=4000, num_companies=500, num_persons=5000, num_keywords=1200,
            seed=7,
        )
    )

    # --- labeling throughput: serial vs pooled, identical output ----------
    base_config = WorkloadConfig(num_queries=80, max_joins=2, seed=11)
    serial_rate, serial_workload = best_labeling_rate(database, base_config)
    workers = max(cores, 2)
    parallel_rate, parallel_workload = best_labeling_rate(
        database, replace(base_config, label_workers=workers)
    )
    assert fingerprint(parallel_workload) == fingerprint(serial_workload), (
        "concurrent labeling changed the generated workload"
    )
    speedup = parallel_rate / serial_rate

    if cores >= MIN_CORES_FOR_FLOOR:
        floor_note = f"required >= {MIN_LABELING_SPEEDUP:.1f}x on {cores} cores"
        assert speedup >= MIN_LABELING_SPEEDUP, (
            f"parallel labeling is only {speedup:.2f}x serial ({floor_note})"
        )
    else:
        floor_note = (
            f"{cores} core(s) < {MIN_CORES_FOR_FLOOR}: bit-identity + sanity floor only"
        )
        assert speedup >= MAX_SMALL_HOST_SLOWDOWN, (
            f"parallel labeling collapsed to {speedup:.2f}x on a small host"
        )

    # --- scan reuse across sub-plan fan-outs ------------------------------
    probe_generator = QueryGenerator(
        database, WorkloadConfig(num_queries=30, max_joins=3, seed=23)
    )
    probe_queries = [probe_generator._draw_query() for _ in range(30)]
    reuse_executor = CardinalityExecutor(
        database, cache_capacity=4096, scan_cache_capacity=256
    )
    fresh_executor = CardinalityExecutor(database)
    fanout_queries = [q for q in probe_queries if q.num_joins >= 2][:10]
    assert fanout_queries, "probe workload produced no multi-join queries"
    subplans = 0
    for query in fanout_queries:
        for subquery in query.connected_subqueries():
            subplans += 1
            assert reuse_executor.execute(subquery) == fresh_executor.execute(subquery)
    scan_lookups = reuse_executor.scan_reuse_hits + reuse_executor.scan_reuse_misses
    reuse_rate = reuse_executor.scan_reuse_hits / scan_lookups
    assert reuse_rate >= MIN_SCAN_REUSE_RATE, (
        f"sub-plan fan-outs reused only {100 * reuse_rate:.0f}% of base scans "
        f"({reuse_executor.scan_reuse_hits}/{scan_lookups})"
    )

    report = "\n".join([
        f"concurrent labeling + scan reuse smoke ({cores} cores, BLAS pinned to 1 thread):",
        f"  serial labeling             : {serial_rate:>8.1f} labels/s",
        f"  pooled labeling (x{workers})       : {parallel_rate:>8.1f} labels/s "
        f"({speedup:.2f}x, {floor_note})",
        f"  sub-plan scan reuse         : {100 * reuse_rate:.0f}% of "
        f"{scan_lookups} scans memo-served over {subplans} sub-plans",
    ]) + "\n"
    RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(report, encoding="utf-8")

    write_bench_json(
        RESULTS_DIRECTORY,
        "smoke_parallel_execution",
        throughput_qps=parallel_rate,
        metrics={
            "serial_labels_per_s": serial_rate,
            "parallel_labels_per_s": parallel_rate,
            "labeling_speedup": speedup,
            "speedup_floor_enforced": cores >= MIN_CORES_FOR_FLOOR,
            "label_workers": workers,
            "workload_queries": len(serial_workload),
            "scan_reuse_rate": reuse_rate,
            "scan_reuse_hits": reuse_executor.scan_reuse_hits,
            "scan_reuse_misses": reuse_executor.scan_reuse_misses,
            "subplans_executed": subplans,
        },
    )
    print(report, end="")
    print("concurrent labeling + scan reuse smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
