"""Tests of the benchmark records and the BLAS thread pinning helper."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.bench import _BLAS_THREAD_VARIABLES, pin_blas_threads, write_bench_json

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def clean_blas_env(monkeypatch):
    for variable in _BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(variable, raising=False)
    return monkeypatch


class TestPinBlasThreads:
    def test_covers_the_five_blas_variables(self):
        assert set(_BLAS_THREAD_VARIABLES) == {
            "OPENBLAS_NUM_THREADS",
            "OMP_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
        }

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_fewer_than_one_thread(self, clean_blas_env, threads):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            pin_blas_threads(threads)
        assert not any(variable in os.environ for variable in _BLAS_THREAD_VARIABLES)

    def test_sets_every_unset_variable(self, clean_blas_env):
        with pytest.warns(RuntimeWarning):
            applied = pin_blas_threads(3)
        assert applied == {variable: "3" for variable in _BLAS_THREAD_VARIABLES}
        assert all(os.environ[variable] == "3" for variable in _BLAS_THREAD_VARIABLES)

    @pytest.mark.parametrize("exported", _BLAS_THREAD_VARIABLES)
    def test_keeps_an_already_exported_value(self, clean_blas_env, exported):
        clean_blas_env.setenv(exported, "8")
        with pytest.warns(RuntimeWarning):
            applied = pin_blas_threads(1)
        assert applied[exported] == "8"
        assert os.environ[exported] == "8"
        assert all(
            value == "1" for variable, value in applied.items() if variable != exported
        )

    def test_warns_once_numpy_is_loaded(self, clean_blas_env):
        assert "numpy" in sys.modules  # the test session imports it
        with pytest.warns(RuntimeWarning, match="after numpy was imported"):
            pin_blas_threads()

    def test_import_and_pin_before_numpy_do_not_warn(self):
        """In a fresh process the module loads without numpy, so pinning
        first takes effect and raises no warning."""
        script = (
            "import sys\n"
            "from repro.utils.bench import pin_blas_threads\n"
            "assert 'numpy' not in sys.modules\n"
            "pin_blas_threads()\n"
            "assert 'numpy' not in sys.modules\n"
        )
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in _BLAS_THREAD_VARIABLES
        }
        env["PYTHONPATH"] = str(SRC)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestWriteBenchJson:
    def test_writes_the_envelope(self, tmp_path):
        path = write_bench_json(
            tmp_path / "nested",
            "example",
            throughput_qps=120,
            p50_ms=1.5,
            p95_ms=4,
            dtype="float32",
            metrics={"queries": 7, "ratio": 0.5},
        )
        assert path == tmp_path / "nested" / "BENCH_example.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert set(record) == {
            "benchmark",
            "throughput_qps",
            "p50_ms",
            "p95_ms",
            "dtype",
            "cpu_count",
            "platform",
            "metrics",
        }
        assert record["benchmark"] == "example"
        assert record["throughput_qps"] == 120.0
        assert record["p50_ms"] == 1.5
        assert record["p95_ms"] == 4.0
        assert record["dtype"] == "float32"
        assert record["cpu_count"] == os.cpu_count()
        assert record["metrics"] == {"queries": 7, "ratio": 0.5}

    def test_keeps_unmeasured_fields_as_null(self, tmp_path):
        record = json.loads(
            write_bench_json(tmp_path, "bare").read_text(encoding="utf-8")
        )
        assert record["throughput_qps"] is None
        assert record["p50_ms"] is None
        assert record["p95_ms"] is None
        assert record["dtype"] is None
        assert record["metrics"] == {}

    def test_overwrites_an_earlier_record(self, tmp_path):
        write_bench_json(tmp_path, "again", metrics={"run": 1})
        path = write_bench_json(tmp_path, "again", metrics={"run": 2})
        assert json.loads(path.read_text(encoding="utf-8"))["metrics"] == {"run": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_again.json"]

