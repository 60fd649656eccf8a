"""One benchmark over the whole MSCN pipeline, with per-layer attribution.

Run from the repository root::

    python3 benchmarks/pipeline/run.py                      # every workload, once
    python3 benchmarks/pipeline/run.py --workload build --seed 3 --seconds 10 --trace 0
    python3 benchmarks/pipeline/run.py --trace 1            # per-layer metrics
    python3 benchmarks/pipeline/run.py --runs 5 --out DIR   # a set of runs to compare
    python3 benchmarks/pipeline/run.py --compare BASE NEW   # verdict per metric

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or with
``--trace 1`` its per-layer metrics).  Without it, every workload (and every
seed of ``--runs``) runs in its own fresh process, one at a time.  The exit
status is nonzero when an operation or a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="length of the timed phase; BENCHMARK.json's run_seconds by default, "
        "and sets of runs compare only at equal lengths",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: trace the calls into each layer and report per-layer metrics",
    )
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload (all-workload mode)")
    parser.add_argument("--out", type=Path, help="directory for one result JSON per run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    return parser.parse_args(argv)


def environment(pins: dict[str, str], seed: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": pins,
    }


def with_units(values: dict[str, float], declared: list[dict], fill_missing: bool) -> dict:
    """``{name: {"value", "unit"}}`` for every declared metric.

    A per-layer metric the workload did not produce belongs to a layer it
    does not use, and reads 0; a missing end-to-end metric is an error.
    """
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values and not fill_missing:
            raise KeyError(f"the workload did not measure end-to-end metric {name!r}")
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": metric["unit"]}
    return metrics


def run_one(args: argparse.Namespace, spec: dict, pins: dict[str, str], sizes=None) -> int:
    """Run ``args.workload`` here; ``sizes`` defaults to the full inputs."""
    from pipeline.workloads import FULL, run_workload

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sizes or FULL)
    tracer = record.pop("tracer")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    record["metrics"] = with_units(record["metrics"], declared, fill_missing=bool(args.trace))
    for name, metric in record["metrics"].items():
        print(f"{args.workload:<13} {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for check, failures in record["checks"].items():
        print(f"{args.workload:<13} check {check:<28} {'ok' if not failures else f'{failures} failed'}")
    if args.trace:
        tracer.write(
            (args.out or RESULTS) / f"trace_{args.workload}_{args.seed}.json"
        )
    if args.out:
        record["env"] = environment(pins, args.seed)
        args.out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}_{args.seed}{'_trace' if args.trace else ''}.json"
        (args.out / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Each workload and seed in its own fresh process, one at a time.

    Seeds are the outer loop, so a slow stretch of the host touches a few
    runs of every workload rather than many runs of one.
    """
    status = 0
    rows = []
    for seed in range(args.seed, args.seed + args.runs):
        for workload in spec["workloads"]:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload["name"], "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if args.out:
                command += ["--out", str(args.out)]
            child = subprocess.run(command, capture_output=True, text=True, timeout=600)
            *report, last = child.stdout.splitlines() or [""]
            print("\n".join(report))
            sys.stderr.write(child.stderr)
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = None
            if child.returncode or result is None or not result["correct"]:
                status = 1
            rows.append((workload["name"], seed, result))
    print("\nworkload      seed  correct  attempted  failed")
    for name, seed, result in rows:
        if result is None:
            print(f"{name:<13} {seed:>4}  crashed")
        else:
            print(
                f"{name:<13} {seed:>4}  {str(result['correct']):<7}  "
                f"{result['attempted']:>9}  {result['failed']:>6}"
            )
    return status


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run from a checkout of the repository: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    # Import this directory as the ``pipeline`` package: run as a script, its
    # ``trace`` module would otherwise shadow the standard library's.
    sys.path[:1] = [str(ROOT / "src"), str(HERE.parent)]
    spec = load_benchmark()
    args = parse_args(argv, spec)
    if args.compare:
        from pipeline.compare import compare_sets

        return compare_sets(*args.compare, spec)
    if args.workload:
        from repro.utils.bench import pin_blas_threads

        return run_one(args, spec, pin_blas_threads())
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
