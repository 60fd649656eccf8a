"""Machine-readable benchmark records and benchmark-environment control.

The smoke benchmarks and the Section 4.7 latency benchmark each write a
``BENCH_<name>.json`` next to their human-readable ``.txt`` report, so CI
runs (and local reruns) leave a structured trail of throughput and latency
numbers that tooling can diff across commits without scraping text tables.

Every record carries a common envelope — benchmark name, serving dtype,
throughput and latency percentiles — plus free-form benchmark-specific
metrics.  Fields that do not apply are simply ``None``; consumers must treat
absent/null keys as "not measured".

:func:`pin_blas_threads` is the shared benchmark-environment helper: the
pipeline benchmark and the smokes pin the BLAS libraries to one thread, so
nested BLAS threading neither inflates serial baselines nor contends with
the threads under test.  This module avoids importing numpy at module level,
so the helper can run before numpy — and therefore before OpenBLAS/MKL read
their thread-count environment variables — is loaded anywhere in the
process.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import warnings
from os import PathLike
from pathlib import Path
from typing import Mapping

__all__ = ["pin_blas_threads", "write_bench_json"]

#: Thread-count knobs of every BLAS/threading backend numpy may load.
_BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_blas_threads(threads: int = 1) -> dict[str, str]:
    """Pin BLAS/OpenMP thread pools to ``threads`` via environment variables.

    Must run **before numpy is first imported**: OpenBLAS and MKL size their
    thread pools from these variables at library load time.  Explicitly
    exported values are respected (``setdefault`` semantics), so a caller
    who deliberately benchmarks multi-threaded BLAS can still do so.  Emits
    a ``RuntimeWarning`` when numpy is already loaded, because the pins then
    cannot take effect for this process.

    Returns the mapping of variables to their effective values.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if "numpy" in sys.modules:
        warnings.warn(
            "pin_blas_threads() called after numpy was imported; BLAS thread "
            "pools are already sized and the pins will not take effect",
            RuntimeWarning,
            stacklevel=2,
        )
    applied = {}
    for variable in _BLAS_THREAD_VARIABLES:
        os.environ.setdefault(variable, str(threads))
        applied[variable] = os.environ[variable]
    return applied


def write_bench_json(
    directory: "str | PathLike",
    name: str,
    *,
    throughput_qps: "float | None" = None,
    p50_ms: "float | None" = None,
    p95_ms: "float | None" = None,
    dtype: "str | None" = None,
    metrics: "Mapping[str, object] | None" = None,
) -> Path:
    """Write ``BENCH_<name>.json`` into ``directory`` and return its path.

    ``metrics`` holds benchmark-specific extras (speedups, q-error deltas,
    counts); they are stored under a ``metrics`` key so the envelope stays
    uniform across benchmarks.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "benchmark": name,
        "throughput_qps": None if throughput_qps is None else float(throughput_qps),
        "p50_ms": None if p50_ms is None else float(p50_ms),
        "p95_ms": None if p95_ms is None else float(p95_ms),
        "dtype": dtype,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "metrics": dict(metrics) if metrics else {},
    }
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
