"""Unit tests of the shared thread-parallel substrate (``repro.utils.parallel``).

The substrate's whole contract is determinism: a pure function of the work
size decides the chunk spans, results come back in span order, and small
work runs inline — so every consumer (scans, statistics, labeling) can rely
on parallel == serial without consumer-specific reasoning.
"""

from __future__ import annotations

import threading

import pytest

from repro.utils.parallel import WorkerPool, chunk_spans, resolve_worker_count

class TestResolveWorkerCount:
    def test_none_means_serial(self):
        assert resolve_worker_count(None) == 1

    def test_auto_resolves_to_cpu_count(self):
        import os

        assert resolve_worker_count("auto") == (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [1, 2, 7, 64])
    def test_positive_integers_pass_through(self, workers):
        assert resolve_worker_count(workers) == workers

    @pytest.mark.parametrize("junk", [0, -1, 2.5, "fast", True, False, [2]])
    def test_junk_rejected(self, junk):
        with pytest.raises(ValueError):
            resolve_worker_count(junk)


class TestChunkSpans:
    @pytest.mark.parametrize("total", [0, 1, 2, 7, 100, 101])
    @pytest.mark.parametrize("chunks", [1, 2, 3, 7, 16])
    def test_spans_cover_range_contiguously(self, total, chunks):
        spans = chunk_spans(total, chunks)
        cursor = 0
        for start, stop in spans:
            assert start == cursor
            assert stop > start, "no empty spans"
            cursor = stop
        assert cursor == total

    def test_never_more_spans_than_items(self):
        assert len(chunk_spans(3, 16)) == 3
        assert chunk_spans(0, 4) == []

    def test_first_spans_take_the_remainder(self):
        # 10 items over 4 chunks: sizes 3, 3, 2, 2.
        assert chunk_spans(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_pure_function(self):
        assert chunk_spans(17, 5) == chunk_spans(17, 5)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            chunk_spans(-1, 2)
        with pytest.raises(ValueError):
            chunk_spans(5, 0)


class TestWorkerPool:
    @pytest.mark.parametrize("workers", [None, 1, 2, 7])
    def test_map_preserves_input_order(self, workers):
        with WorkerPool(workers) as pool:
            items = list(range(97))
            assert pool.map(lambda x: x * x, items) == [x * x for x in items]

    @pytest.mark.parametrize("workers", [None, 2, 7])
    def test_run_spans_returns_in_span_order(self, workers):
        with WorkerPool(workers) as pool:
            spans = pool.run_spans(50, lambda start, stop: (start, stop))
            assert spans == sorted(spans)
            assert spans[0][0] == 0 and spans[-1][1] == 50

    def test_single_item_runs_inline_on_calling_thread(self):
        pool = WorkerPool(8)
        caller = threading.current_thread().name
        threads = pool.run_spans(1, lambda s, e: threading.current_thread().name)
        assert threads == [caller]
        assert pool._executor is None, "no executor created for inline work"

    def test_effective_workers_thresholds(self):
        pool = WorkerPool(4)
        assert pool.effective_workers(0) == 1
        assert pool.effective_workers(1) == 1
        assert pool.effective_workers(2) == 2
        assert pool.effective_workers(3_000) == 4
        # Never more workers than items.
        assert WorkerPool(16).effective_workers(3) == 3

    def test_empty_work(self):
        with WorkerPool(4) as pool:
            assert pool.run_spans(0, lambda s, e: 1) == []
            assert pool.map(lambda x: x, []) == []

    def test_serial_pool_never_creates_threads(self):
        pool = WorkerPool(None)
        pool.map(lambda x: x, list(range(1000)))
        assert pool._executor is None

    @pytest.mark.parametrize("workers", [2, 7])
    def test_errors_propagate_after_all_spans_finish(self, workers):
        finished = []

        def task(start, stop):
            if start == 0:
                raise ValueError("span zero failed")
            finished.append((start, stop))
            return stop - start

        with WorkerPool(workers) as pool:
            with pytest.raises(ValueError, match="span zero failed"):
                pool.run_spans(100, task)
        # Every non-failing span ran to completion before the raise.
        assert len(finished) == workers - 1

    def test_multiple_errors_aggregate_onto_first(self):
        def task(start, stop):
            raise RuntimeError(f"boom@{start}")

        with WorkerPool(4) as pool:
            with pytest.raises(RuntimeError, match=r"4/4 worker spans failed"):
                pool.run_spans(40, task)

    def test_close_is_idempotent_and_pool_stays_usable(self):
        pool = WorkerPool(3)
        assert pool.map(lambda x: x + 1, list(range(30))) == list(range(1, 31))
        pool.close()
        pool.close()
        # Usable after close: the executor is recreated lazily.
        assert pool.map(lambda x: x + 1, list(range(30))) == list(range(1, 31))
        pool.close()

    def test_map_matches_serial_for_stateful_reduction_per_chunk(self):
        # A merge done in span order reproduces the serial left fold.
        items = list(range(1, 200))
        with WorkerPool(7) as pool:
            chunked = pool.run_spans(
                len(items), lambda s, e: sum(items[s:e])
            )
        assert sum(chunked) == sum(items)
