"""Deterministic fault injection for the serving reliability layer.

A learned estimator embedded in a query optimizer has to keep answering —
correctly, degraded, or with a typed error — while the machinery around it
misbehaves: inference blows up, a model snapshot on disk is corrupt,
latency spikes push requests past their deadlines.
Testing those paths with ad-hoc monkeypatching is fragile and unrepeatable,
so this module provides a *seeded* fault plan that production code
cooperates with through named **fault sites**:

``engine.run``
    fired by :meth:`repro.core.trainer.MSCNTrainer.predict_normalized`
    before each chunk's forward pass (context: ``batch_size``),
``registry.load``
    fired by :meth:`repro.serving.registry.ModelRegistry.load` before a
    version directory is read (its context carries ``path``, so a
    ``corrupt`` fault can flip bytes in the stored snapshot).

A :class:`FaultPlan` is a list of :class:`FaultSpec` rules.  Every decision
(fire or not) is drawn from a per-spec ``random.Random`` stream derived from
the plan seed, so a plan replays identically across runs, interleavings and
machines — chaos tests and the fault-injection smoke benchmark assert exact
outcome counts against it.  Production code pays one global read plus a
``None`` check per site when no plan is active.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "fault_point",
]

#: Supported fault kinds: raise an exception, stall the call site, or
#: corrupt the file the site is about to read.
FAULT_KINDS = ("error", "latency", "corrupt")


def _derive_seed(*parts) -> int:
    """A stable integer seed from arbitrary parts.

    ``random.Random`` falls back to ``hash()`` for composite seeds, and
    string hashing is randomized per process — hashing through sha256 keeps
    fault schedules identical across runs and machines.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class InjectedFault(RuntimeError):
    """The exception a fault plan raises at an instrumented site."""

    def __init__(self, site: str, ordinal: int):
        super().__init__(f"injected fault at {site!r} (trigger #{ordinal})")
        self.site = site
        self.ordinal = ordinal


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: *what* happens, *where*, and *how often*.

    ``probability`` is evaluated against the spec's own seeded stream each
    time the site fires; ``skip_first`` lets the first N evaluations pass
    untouched (e.g. let the service warm up before the chaos starts), and
    ``max_triggers`` bounds how many times the fault actually fires — a
    bounded plan is what lets tests assert recovery after the faults stop.
    """

    site: str
    kind: str = "error"
    probability: float = 1.0
    max_triggers: int | None = None
    skip_first: int = 0
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.max_triggers is not None and self.max_triggers < 0:
            raise ValueError("max_triggers must be non-negative")
        if self.skip_first < 0:
            raise ValueError("skip_first must be non-negative")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")


class FaultPlan:
    """A seeded, thread-safe schedule of faults over named sites.

    Activate with::

        plan = FaultPlan([FaultSpec("engine.run", probability=0.5)], seed=7)
        with plan.activate():
            ...  # instrumented code paths now consult the plan

    The plan is deterministic: spec ``i`` draws from ``Random((seed, i))``,
    and draws happen in site-arrival order under one lock, so a single-
    threaded driver replays exactly.  ``triggered()`` / ``evaluations()``
    expose per-site counters for assertions, and :meth:`report` a summary.
    """

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        self.specs = tuple(specs)
        self.seed = seed
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._streams = [
            random.Random(_derive_seed(seed, index)) for index in range(len(self.specs))
        ]
        self._evaluations = [0] * len(self.specs)
        self._triggers = [0] * len(self.specs)

    # ------------------------------------------------------------------
    def fire(self, site: str, **context) -> None:
        """Consult every spec matching ``site``; may sleep, corrupt or raise.

        The decision (and counter updates) happen under the plan lock; the
        *effects* run outside it, so an injected latency spike never blocks
        other sites' decisions.
        """
        pending: list[tuple[int, FaultSpec]] = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if spec.site != site:
                    continue
                self._evaluations[index] += 1
                if self._evaluations[index] <= spec.skip_first:
                    continue
                if spec.max_triggers is not None and self._triggers[index] >= spec.max_triggers:
                    continue
                if self._streams[index].random() >= spec.probability:
                    continue
                self._triggers[index] += 1
                pending.append((self._triggers[index], spec))
        for ordinal, spec in pending:
            if spec.kind == "latency":
                self._sleeper(spec.latency_seconds)
            elif spec.kind == "corrupt":
                self._corrupt(site, ordinal, context)
            else:
                raise InjectedFault(site, ordinal)

    def _corrupt(self, site: str, ordinal: int, context: dict) -> None:
        """Flip one deterministic byte in the snapshot the site will read."""
        path = context.get("path")
        if path is None:
            raise InjectedFault(site, ordinal)  # nothing to corrupt: still a fault
        target = _corruption_target(Path(path))
        if target is None:
            raise InjectedFault(site, ordinal)
        data = bytearray(target.read_bytes())
        if not data:
            return
        offset = random.Random(_derive_seed(self.seed, "corrupt", site, ordinal)).randrange(
            len(data)
        )
        data[offset] ^= 0xFF
        target.write_bytes(bytes(data))

    # ------------------------------------------------------------------
    def activate(self) -> "_ActivePlan":
        """Install this plan as the process-wide active plan (one at a time)."""
        return _ActivePlan(self)

    def evaluations(self, site: str | None = None) -> int:
        """How many times matching specs were consulted."""
        with self._lock:
            return sum(
                count
                for count, spec in zip(self._evaluations, self.specs)
                if site is None or spec.site == site
            )

    def triggered(self, site: str | None = None) -> int:
        """How many faults actually fired (optionally for one site)."""
        with self._lock:
            return sum(
                count
                for count, spec in zip(self._triggers, self.specs)
                if site is None or spec.site == site
            )

    def report(self) -> list[dict]:
        """Per-spec summary rows (for benchmark output and debugging)."""
        with self._lock:
            return [
                {
                    "site": spec.site,
                    "kind": spec.kind,
                    "probability": spec.probability,
                    "evaluations": evaluations,
                    "triggered": triggers,
                }
                for spec, evaluations, triggers in zip(
                    self.specs, self._evaluations, self._triggers
                )
            ]


def _corruption_target(path: Path) -> Path | None:
    """The file a ``corrupt`` fault flips a byte in.

    A directory target resolves to its largest file (deterministic: size,
    then name) — for a model snapshot that is the weights archive, which is
    also what checksum verification must catch.
    """
    if path.is_file():
        return path
    if path.is_dir():
        files = sorted(
            (entry for entry in path.rglob("*") if entry.is_file()),
            key=lambda entry: (entry.stat().st_size, entry.name),
        )
        return files[-1] if files else None
    return None


# ----------------------------------------------------------------------
# The process-wide active plan.
# ----------------------------------------------------------------------
_active_lock = threading.Lock()
_active: FaultPlan | None = None


class _ActivePlan:
    """Context manager installing/removing a plan as the active one."""

    def __init__(self, plan: FaultPlan):
        self._plan = plan

    def __enter__(self) -> FaultPlan:
        global _active
        with _active_lock:
            if _active is not None:
                raise RuntimeError("another FaultPlan is already active")
            _active = self._plan
        return self._plan

    def __exit__(self, *exc_info) -> None:
        global _active
        with _active_lock:
            _active = None


def active_plan() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _active


def fault_point(site: str, **context) -> None:
    """Hook called by instrumented production code at a named site.

    With no active plan this is a global read and a ``None`` check — cheap
    enough for hot paths like chunked prediction.
    """
    plan = _active
    if plan is not None:
        plan.fire(site, **context)
