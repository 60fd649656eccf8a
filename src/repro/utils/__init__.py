"""Shared utilities: deterministic RNG management, benchmark records, the
one LRU cache, and seeded fault injection for the reliability test harness.

Submodules are imported lazily (PEP 562): ``repro.utils.bench`` must be
importable *without* pulling in numpy, because
:func:`~repro.utils.bench.pin_blas_threads` has to run before numpy — and
therefore before the BLAS libraries read their thread-count environment
variables — is loaded anywhere in the process.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static imports for type checkers only
    from repro.utils.bench import pin_blas_threads, write_bench_json
    from repro.utils.faults import FaultPlan, FaultSpec, InjectedFault, fault_point
    from repro.utils.lru import LRU
    from repro.utils.rng import spawn_rng

__all__ = [
    "spawn_rng",
    "pin_blas_threads",
    "write_bench_json",
    "LRU",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "fault_point",
]

_EXPORTS = {
    "spawn_rng": "repro.utils.rng",
    "pin_blas_threads": "repro.utils.bench",
    "write_bench_json": "repro.utils.bench",
    "LRU": "repro.utils.lru",
    "FaultPlan": "repro.utils.faults",
    "FaultSpec": "repro.utils.faults",
    "InjectedFault": "repro.utils.faults",
    "fault_point": "repro.utils.faults",
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
