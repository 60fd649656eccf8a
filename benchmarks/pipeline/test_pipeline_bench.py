"""The pipeline benchmark at test sizes: every workload, both run modes.

Checks that each run emits exactly the metrics ``BENCHMARK.json`` declares,
with no NaN, that its correctness checks pass, and that tracing changes no
quality number, and that ``serve_adhoc`` stops when its pool runs out.
Also checks the ``--compare`` verdicts on synthetic run sets, the
percentile guard and the span recorder's self times.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from pipeline import run
from pipeline.compare import compare_sets, verdict
from pipeline.trace import Span, Tracer, percentile, self_times
from pipeline.workloads import TINY, run_workload

SPEC = run.load_benchmark()


def run_tiny(workload: str, trace: int, out, capsys) -> tuple[dict, dict]:
    args = run.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace), "--out", str(out)],
        SPEC,
    )
    status = run.run_one(args, SPEC, pins={}, sizes=TINY)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    suffix = "_trace" if trace else ""
    record = json.loads((out / f"{workload}_3{suffix}.json").read_text(encoding="utf-8"))
    assert status == 0, record["checks"]
    return printed, record


@pytest.mark.parametrize("workload", [workload["name"] for workload in SPEC["workloads"]])
def test_workload_emits_declared_metrics(workload, tmp_path, capsys):
    plain, plain_record = run_tiny(workload, 0, tmp_path, capsys)
    traced, traced_record = run_tiny(workload, 1, tmp_path, capsys)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0 and plain["attempted"] >= 1
    for printed, declared in ((plain, "end_to_end"), (traced, "per_layer")):
        names = [metric["name"] for metric in SPEC[declared]]
        assert list(printed["metrics"]) == names
        for metric in SPEC[declared]:
            value = printed["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert not math.isnan(value["value"]), metric["name"]
    assert plain_record["quality"] == traced_record["quality"]
    assert (tmp_path / f"trace_{workload}_3.json").is_file()


def test_serve_adhoc_ends_when_its_pool_runs_out(capsys):
    sizes = replace(TINY, adhoc_pool=10, quality_queries=10)
    record = run_workload("serve_adhoc", 3, 5.0, False, sizes)
    assert record["correct"] and record["attempted"] == 10
    assert "all 10 pool queries were sent" in capsys.readouterr().err


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.7, 99.3, 100.1]


@pytest.mark.parametrize(
    ("new", "expected"),
    [
        ([120.0, 121.0, 119.0, 122.0, 120.0, 120.5, 119.5, 121.5, 118.5, 120.2], "worse"),
        ([100.5, 99.5, 101.0, 100.0, 99.0, 100.3, 99.7, 100.8, 99.2, 100.4], "unchanged"),
        ([80.0, 81.0, 79.0, 80.5, 79.5, 80.2, 79.8, 80.7, 79.3, 80.1], "better"),
        ([70.0, 130.0, 95.0, 110.0, 88.0, 125.0, 75.0, 105.0, 92.0, 118.0], "unresolved"),
    ],
)
def test_compare_verdicts(new, expected):
    assert verdict(BASE, new, "lower", 0.1) == expected
    mirrored = {"worse": "better", "better": "worse"}.get(expected, expected)
    assert verdict(BASE, new, "higher", 0.1) == mirrored


def test_compare_claims_no_gain_from_fewer_than_ten_pairs():
    new = [80.0, 81.0, 79.0, 80.5, 79.5]
    assert verdict(BASE[:5], new, "lower", 0.1) == "unchanged"
    assert verdict(BASE[:9], new + [80.2, 79.8, 80.7, 79.3], "lower", 0.1) == "unchanged"
    # A regression needs no minimum: five pairs are enough to reject one.
    assert verdict(BASE[:5], [120.0, 121.0, 119.0, 122.0, 120.0], "lower", 0.1) == "worse"


def write_set(directory, scale: float, seconds: float = 15.0, runs: int = 5) -> None:
    directory.mkdir()
    for seed in range(runs):
        record = {
            "workload": "build", "seed": seed, "seconds": seconds, "trace": False,
            "metrics": {"op_ms_p50": {"value": scale * (100.0 + seed), "unit": "ms"}},
        }
        (directory / f"build_{seed}.json").write_text(json.dumps(record))


def test_compare_exits_nonzero_on_regression(tmp_path, capsys):
    write_set(tmp_path / "base", 1.0)
    write_set(tmp_path / "new", 1.5)
    assert compare_sets(tmp_path / "base", tmp_path / "base", SPEC) == 0
    assert compare_sets(tmp_path / "base", tmp_path / "new", SPEC) == 1
    assert "worse" in capsys.readouterr().out


def test_compare_refuses_sets_of_different_run_lengths(tmp_path, capsys):
    write_set(tmp_path / "base", 1.0)
    write_set(tmp_path / "new", 1.0, seconds=30.0)
    assert compare_sets(tmp_path / "base", tmp_path / "new", SPEC) == 2
    assert "different lengths" in capsys.readouterr().out


def test_percentile_guard():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([7.0], 50) == 7.0
    samples = [float(value) for value in range(1000)]
    assert percentile(samples, 99) == pytest.approx(989.01)
    with pytest.raises(ValueError, match="p99 needs at least 1000"):
        percentile(samples[:999], 99)
    with pytest.raises(ValueError, match="p95 needs at least 200"):
        percentile(samples[:199], 95)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("request", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("b", 3.0, 6.0, 0, 1),  # overlaps a: covered is [1, 6]
        Span("c", 8.0, 12.0, 0, 1),  # clipped to the parent's end
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 4.0]


def test_tracer_links_children_and_request_ids():
    tracer = Tracer()
    with tracer.span("request", request=7):
        with tracer.span("layer"):
            pass
    root, child = tracer.spans
    assert child.parent == 0 and child.request == 7 and root.parent is None
    assert root.start <= child.start <= child.end <= root.end
