"""Compare two sets of benchmark runs, workload by workload, metric by metric.

A set is a directory of run records written by ``run.py --out``.  For each
workload and end-to-end metric of ``BENCHMARK.json`` the comparison prints
each side's median and quartiles and one verdict:

* ``better``: there are at least ten run pairs, the new side's median is
  better, it wins at least nine tenths of the pairs (ties count for
  neither), and the medians differ by more than the base side's
  interquartile range;
* ``unresolved``: the spread of either side (interquartile range over
  median) is wider than the metric's bound, and neither side's runs all beat
  the other's;
* ``worse``: the new median is worse than the base median by more than the
  bound;
* ``unchanged``: otherwise.

Runs are paired by seed order.  The exit status is 1 when any verdict is
``worse``, and 2 when the sets were not measured for the same number of
seconds: run length is part of the benchmark, not of the change.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import quantiles

__all__ = ["MIN_PAIRS_FOR_GAIN", "load_set", "verdict", "compare_sets"]

#: Fewer run pairs than this never report a gain.
MIN_PAIRS_FOR_GAIN = 10


def load_set(directory: Path) -> tuple[dict[str, dict[str, list[float]]], set[float]]:
    """``{workload: {metric: values in seed order}}`` of a set's untraced runs,
    and the run lengths (``seconds``) its records were measured with."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "workload" in record and not record.get("trace"):
            records.append(record)
    runs: dict[str, dict[str, list[float]]] = {}
    for record in sorted(records, key=lambda record: record["seed"]):
        metrics = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return runs, {float(record["seconds"]) for record in records}


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """The verdict on one metric (see the module docstring)."""
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0.0

    base_q1, base_median, base_q3 = quantiles(base, n=4)
    new_q1, new_median, new_q3 = quantiles(new, n=4)
    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs)
    if (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and beats(new_median, base_median)
        and wins >= 0.9 * len(pairs)
        and abs(new_median - base_median) > base_q3 - base_q1
    ):
        return "better"
    spread = max(
        (base_q3 - base_q1) / abs(base_median), (new_q3 - new_q1) / abs(new_median)
    )
    new_dominates = all(beats(n, b) for n in new for b in base)
    base_dominates = all(beats(b, n) for n in new for b in base)
    if spread > bound and not (new_dominates or base_dominates):
        return "unresolved"
    if sign * (new_median - base_median) / abs(base_median) > bound:
        return "worse"
    return "unchanged"


def _summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g} (1 run)" if values else "-"
    q1, median, q3 = quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def compare_sets(base_dir: Path, new_dir: Path, spec: dict) -> int:
    (base, base_seconds), (new, new_seconds) = load_set(base_dir), load_set(new_dir)
    if len(base_seconds | new_seconds) > 1:
        print(f"cannot compare: runs measured for different lengths "
              f"(base {sorted(base_seconds)} s, new {sorted(new_seconds)} s)")
        return 2
    counts: dict[str, int] = {}
    print(f"{'workload':<13} {'metric':<16} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'bound':>5}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            base_values = base.get(name, {}).get(metric["name"], [])
            new_values = new.get(name, {}).get(metric["name"], [])
            result = verdict(base_values, new_values, metric["better"], metric["bound"])
            counts[result] = counts.get(result, 0) + 1
            print(f"{name:<13} {metric['name']:<16} {_summary(base_values):<34} "
                  f"{_summary(new_values):<34} {metric['bound']:>5.0%}  {result}")
    print(", ".join(f"{count} {result}" for result, count in sorted(counts.items())))
    return 1 if counts.get("worse") else 0
