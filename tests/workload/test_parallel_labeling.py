"""Determinism of concurrent truth labeling (``WorkloadConfig.label_workers``).

Drawing stays on the single shared RNG stream; only labeling fans across
threads.  The generated workload must therefore be **identical at every
worker count** — same queries, same order, same labels, same truth modes
and bounds — and the thread-shared executor caches must stay coherent.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.db.executor import CardinalityExecutor
from repro.workload.generator import QueryGenerator, WorkloadConfig


def _fingerprint(workload):
    return [
        (entry.query.signature(), entry.cardinality, entry.truth_mode, entry.bounds)
        for entry in workload
    ]


class TestParallelLabelingDeterminism:
    @pytest.mark.parametrize("label_workers", [1, 2, 7])
    def test_exact_labels_identical_at_any_worker_count(
        self, tiny_database, label_workers
    ):
        base = WorkloadConfig(num_queries=60, max_joins=2, seed=31)
        reference = QueryGenerator(tiny_database, base).generate()
        parallel = QueryGenerator(
            tiny_database, replace(base, label_workers=label_workers)
        ).generate()
        assert _fingerprint(parallel) == _fingerprint(reference)

    @pytest.mark.parametrize("label_workers", [2, 7])
    def test_sampled_labels_identical_at_any_worker_count(
        self, tiny_database, label_workers
    ):
        # Force the sampled oracle on every query: its lazy construction and
        # its confidence bounds must both survive concurrent labeling.
        base = WorkloadConfig(
            num_queries=25,
            max_joins=2,
            seed=13,
            truth_mode="sampled",
            truth_sample_rows=500,
        )
        reference = QueryGenerator(tiny_database, base).generate()
        parallel = QueryGenerator(
            tiny_database, replace(base, label_workers=label_workers)
        ).generate()
        assert _fingerprint(parallel) == _fingerprint(reference)

    def test_auto_truth_mode_mixes_oracles_identically(self, tiny_database):
        # A row budget between the smallest and largest referenced-table sums
        # routes some queries exact and some sampled within one workload.
        base = WorkloadConfig(
            num_queries=30,
            max_joins=2,
            seed=17,
            truth_mode="auto",
            truth_row_budget=3000,
            truth_sample_rows=400,
        )
        reference = QueryGenerator(tiny_database, base).generate()
        parallel = QueryGenerator(
            tiny_database, replace(base, label_workers=4)
        ).generate()
        assert _fingerprint(parallel) == _fingerprint(reference)
        assert {entry.truth_mode for entry in reference} == {"exact", "sampled"}

    def test_skip_empty_results_truncates_identically(self, tiny_database):
        base = WorkloadConfig(
            num_queries=40, max_joins=2, seed=19, skip_empty_results=True
        )
        reference = QueryGenerator(tiny_database, base).generate()
        parallel = QueryGenerator(
            tiny_database, replace(base, label_workers=3)
        ).generate()
        assert len(reference) == len(parallel) == 40
        assert _fingerprint(parallel) == _fingerprint(reference)

    def test_explicit_num_queries_override(self, tiny_database):
        config = WorkloadConfig(num_queries=50, max_joins=1, seed=5, label_workers=2)
        workload = QueryGenerator(tiny_database, config).generate(num_queries=15)
        assert len(workload) == 15

    @pytest.mark.parametrize(
        "junk", [0, -1, -2, True, False, "fast", "auto", "2", 2.0, 2.5, [2]]
    )
    def test_config_rejects_invalid_label_workers(self, junk):
        with pytest.raises(ValueError):
            WorkloadConfig(label_workers=junk)

    def test_config_accepts_none_and_positive_counts(self):
        assert WorkloadConfig(label_workers=None).label_workers is None
        assert WorkloadConfig(label_workers=3).label_workers == 3

    @pytest.mark.parametrize("label_workers", [1, 2, 7, 64])
    def test_config_keeps_positive_counts_as_given(self, label_workers):
        assert WorkloadConfig(label_workers=label_workers).label_workers == label_workers


class _LabelFailure(Exception):
    """Raised by the failing generator below, carrying the draw index."""


class _FailingGenerator(QueryGenerator):
    """Labels of the distinct queries drawn at ``failing`` positions raise."""

    def __init__(self, database, config, failing):
        super().__init__(database, config)
        self._failing = set(failing)
        self._draw_index: dict[tuple, int] = {}

    def _draw_query(self):
        query = super()._draw_query()
        self._draw_index.setdefault(query.signature(), len(self._draw_index))
        return query

    def _label(self, query):
        index = self._draw_index[query.signature()]
        if index in self._failing:
            raise _LabelFailure(index)
        return super()._label(query)


def _labeling_threads() -> list[str]:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("truth-label")
    ]


class TestLabelingFailures:
    @pytest.mark.parametrize("failing", [(0,), (11, 17), (17, 11), (39,)])
    @pytest.mark.parametrize("label_workers", [None, 1, 3, 7])
    def test_failing_label_propagates_and_leaves_no_thread(
        self, tiny_database, label_workers, failing
    ):
        config = WorkloadConfig(
            num_queries=40, max_joins=2, seed=23, label_workers=label_workers
        )
        generator = _FailingGenerator(tiny_database, config, failing=failing)
        with pytest.raises(_LabelFailure) as raised:
            generator.generate()
        # The first failure in draw order is the one that propagates.
        assert raised.value.args == (min(failing),)
        alive = _labeling_threads()
        assert not alive, f"labeling threads outlived generate(): {alive}"


class _RecordingGenerator(QueryGenerator):
    """Labels any item as itself, recording the thread that labelled it."""

    def __init__(self, database, config):
        super().__init__(database, config)
        self.labelled_on: dict[int, int] = {}

    def _label(self, item):
        self.labelled_on[item] = threading.get_ident()
        return item


class TestLabelBatch:
    """``_label_batch`` splits a batch into one contiguous chunk per thread."""

    @pytest.mark.parametrize("size", [1, 2, 7, 100, 101])
    @pytest.mark.parametrize("label_workers", [None, 2, 3, 7, 16])
    def test_labels_come_back_in_draw_order_from_contiguous_chunks(
        self, tiny_database, label_workers, size
    ):
        generator = _RecordingGenerator(
            tiny_database, WorkloadConfig(label_workers=label_workers)
        )
        batch = list(range(size))
        assert generator._label_batch(batch) == batch
        assert sorted(generator.labelled_on) == batch
        threads = [generator.labelled_on[item] for item in batch]
        workers = min(label_workers or 1, size)
        if workers == 1:
            # Serial labeling runs inline on the calling thread.
            assert set(threads) == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads
            assert len(set(threads)) <= workers
            # Each chunk of ceil(size / workers) queries is labelled on one
            # thread (an idle pool thread may go on to take a later chunk).
            chunk = -(-size // workers)
            for start in range(0, size, chunk):
                assert len(set(threads[start : start + chunk])) == 1
        assert not _labeling_threads()


class TestThreadedExecutorSharing:
    def test_concurrent_labeling_through_shared_lru(self, tiny_database):
        """Stress the executor's shared caches from many labeling threads.

        Every thread hammers the same signature-keyed LRU and scan memo; the
        counts must match a fresh serial executor and the counters must stay
        consistent (hits + misses == lookups) under contention.
        """
        import threading

        generator = QueryGenerator(
            tiny_database, WorkloadConfig(num_queries=30, max_joins=2, seed=41)
        )
        queries = [generator._draw_query() for _ in range(30)]
        shared = CardinalityExecutor(
            tiny_database, cache_capacity=64, scan_cache_capacity=64
        )
        serial = CardinalityExecutor(tiny_database)
        expected = [serial.execute(query) for query in queries]

        results: dict[int, list[int]] = {}
        errors: list[BaseException] = []

        def worker(slot: int) -> None:
            try:
                results[slot] = [shared.execute(query) for query in queries]
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for slot in range(6):
            assert results[slot] == expected
        lookups = shared.cache_hits + shared.cache_misses
        assert lookups == 6 * len(queries)
        # Each unique signature misses at least once (drawn queries may
        # repeat a signature); the rest must be hits.
        unique = len({query.signature() for query in queries})
        assert shared.cache_misses >= unique
        assert shared.cache_hits > 0
