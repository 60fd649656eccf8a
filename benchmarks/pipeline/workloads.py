"""The pipeline benchmark's four workloads.

Every workload drives the system only through its public calls and times
them from outside.  The system under test is the same on every run: its
databases, models and query pools come from fixed seeds.  ``--seed`` draws
the traffic sent to it: the order of ad-hoc requests, the Zipf request
stream, the build corpora after the first and the order of each truth pass.

A run has three phases:

* **set-up**, repeated ``SETUP_REPEATS`` times; its median is
  ``setup_s``.  Set-up is what the system does before it can answer:
  generate the database and, for the serving workloads, label a training
  corpus, train the model and start the service.
* **inputs**, labelled once and not timed (evaluation sets, query pools).
* **the timed phase**: a closed loop that repeats the workload's operation
  until ``--seconds`` have passed.  Correctness checks and quality metrics
  follow; quality comes from fixed sets, so it reads the same on every run
  of the same code, whatever the host's speed.

With tracing on, every second operation (every twentieth on
``serve_repeat``) runs under the span recorder and the rest run untraced;
comparing the two gives ``trace.overhead``.
"""

from __future__ import annotations

import gc
import itertools
import resource
import sys
import threading
import time
import zlib
from array import array
from dataclasses import dataclass, field
from statistics import mean, median
from typing import Callable

import numpy as np

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator
from repro.datasets.registry import get_dataset
from repro.db.executor import CardinalityExecutor
from repro.db.sampling import MaterializedSamples
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.evaluation.metrics import q_errors
from repro.optimizer.enumeration import enumerate_optimal_plan
from repro.optimizer.quality import (
    evaluate_plan_quality,
    plan_quality_for_query,
    subplan_estimates,
)
from repro.serving import EstimationService, ServiceConfig
from repro.workload.generator import QueryGenerator, WorkloadConfig

from .trace import NULL_TRACER, Tracer, percentile, self_times

__all__ = ["Sizes", "FULL", "TINY", "WORKLOADS", "run_workload"]

# Fixed seeds of the system under test (databases use their spec's default).
EVAL_SEED = 23
TRAIN_SEED = 11
MODEL_SEED = 13
ADHOC_SEED = 31
REPEAT_SEED = 37
TRUTH_SEED = 41

#: Served answers may differ from the reference in the last float32 digits:
#: coalesced micro-batches change the BLAS operand shapes.
SERVED_RTOL = 1e-5
ZIPF_EXPONENT = 1.1
ZIPF_STREAM = 200_000
SETUP_REPEATS = 3
TRUTH_CHECKS = 30
#: Threads labelling the untimed inputs (the output is the same at any count).
LABEL_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload (``FULL`` to measure, ``TINY`` for tests)."""

    imdb_scale: float | str = "small"
    num_samples: int = 1000
    hidden_units: int = 256
    build_train_queries: int = 1000
    build_eval_queries: int = 1000
    build_epochs: int = 10
    serve_train_queries: int = 1000
    serve_epochs: int = 5
    adhoc_pool: int = 8000
    repeat_pool: int = 400
    quality_queries: int = 1000
    plan_queries: int = 100
    retail_scale: float | str = "large"
    truth_timed_per_join_count: int = 1
    truth_quality_per_join_count: int = 4


FULL = Sizes()
TINY = Sizes(
    imdb_scale=0.05,
    num_samples=50,
    hidden_units=16,
    build_train_queries=100,
    build_eval_queries=100,
    build_epochs=2,
    serve_train_queries=100,
    serve_epochs=2,
    adhoc_pool=400,
    repeat_pool=100,
    quality_queries=100,
    plan_queries=10,
    retail_scale=0.05,
    truth_quality_per_join_count=2,
)


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    tracer: Tracer  # or NULL_TRACER

    def seed_for(self, label: str) -> int:
        """A stable traffic seed for one purpose, derived from ``--seed``."""
        return zlib.crc32(f"{self.seed}/{label}".encode())


class PoolExhausted(Exception):
    """Raised by an operation when its workload has no input left to send."""


@dataclass
class Loop:
    """What the closed loop measured."""

    # Latencies in seconds; arrays of doubles keep the benchmark's own
    # per-operation memory at 8 bytes, out of the way of ``peak_rss_mb``.
    untraced: array = field(default_factory=lambda: array("d"))
    traced: array = field(default_factory=lambda: array("d"))
    failures: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: The loop ended before time was up because the input pool ran out.
    exhausted: bool = False
    #: Peak resident memory of the process up to the end of the timed phase.
    peak_rss_mb: float = 0.0

    @property
    def completed(self) -> int:
        return len(self.untraced) + len(self.traced)

    @property
    def attempted(self) -> int:
        return self.completed + len(self.failures)


@dataclass
class Outcome:
    setup_seconds: list[float]
    loop: Loop
    quality: dict[str, float]
    #: check name -> number of failed instances (0 = passed)
    checks: dict[str, int]
    layers: dict[str, float] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def repeated_setup(ctx: Context, build: Callable, dispose: Callable = lambda _: None):
    """Run ``build`` ``SETUP_REPEATS`` times; return the last result and the times."""
    seconds = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None:
            dispose(result)
            result = None
        start = time.perf_counter()
        with ctx.tracer.span("setup"):
            result = build()
        seconds.append(time.perf_counter() - start)
    return result, seconds


def closed_loop(op: Callable, ctx: Context, clients: int = 1, trace_every: int = 2) -> Loop:
    """Call ``op(index, tracer)`` from ``clients`` threads until time is up.

    Each client sends its next operation only after the previous one
    returned; indices come in order from one counter.  With tracing on,
    indices ``1, 1 + trace_every, ...`` run under the tracer, and the loop
    runs at least one operation of each kind.  An operation that raises
    :class:`PoolExhausted` ends its client early.  The peak resident memory
    is read as the loop ends, so it covers set-up, inputs and the timed
    phase, and none of the checks that follow.
    """
    loop = Loop()
    counter = itertools.count()
    min_ops = 2 if ctx.tracer.enabled else 1
    gc.collect()  # set-up garbage is not the timed phase's to collect
    start = time.perf_counter()
    deadline = start + ctx.seconds
    finished = [start] * clients

    def client(slot: int) -> None:
        while True:
            index = next(counter)
            if index >= min_ops and time.perf_counter() >= deadline:
                return
            tracer = ctx.tracer if index % trace_every == 1 else NULL_TRACER
            began = time.perf_counter()
            try:
                with tracer.span("request", request=index):
                    op(index, tracer)
            except PoolExhausted:
                loop.exhausted = True
                return
            except Exception as error:  # noqa: BLE001 - counted, reported, run goes on
                loop.failures.append(f"operation {index}: {error!r}")
                continue
            ended = time.perf_counter()
            (loop.traced if tracer.enabled else loop.untraced).append(ended - began)
            finished[slot] = ended

    if clients == 1:
        client(0)
    else:
        threads = [
            threading.Thread(target=client, args=(slot,), name=f"client-{slot}")
            for slot in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=ctx.seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread did not finish")
    loop.wall_seconds = max(finished) - start
    loop.peak_rss_mb = peak_rss_mb()
    return loop


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def durations_ms(tracer, name: str) -> list[float]:
    return [1000.0 * span.duration for span in tracer.spans if span.name == name]


def self_ms_per_op(tracer, name: str, ops: int) -> float:
    """Mean self time of layer ``name`` per traced operation, in ms."""
    if ops == 0:
        return 0.0
    selfs = self_times(tracer.spans)
    total = sum(value for span, value in zip(tracer.spans, selfs) if span.name == name)
    return 1000.0 * total / ops


def tail_ms(values: list[float], q: float) -> float:
    """``percentile`` of a layer's samples.

    Reads 0.0 when the layer did no work, and also when there are too few
    samples for the percentile (only at test sizes; full runs have enough).
    """
    try:
        return percentile(values, q)
    except ValueError:
        return 0.0


def common_layers(ctx: Context, loop: Loop) -> dict[str, float]:
    """Per-layer metrics every workload reports the same way."""
    generate = durations_ms(ctx.tracer, "datasets.generate")
    return {
        "datasets.generate_s": median(generate) / 1000.0,
        "trace.overhead": median(loop.traced) / median(loop.untraced) - 1.0,
    }


def labelled_queries(database, size: int, seed: int, min_joins: int, max_joins: int, workers=None):
    config = WorkloadConfig(
        num_queries=size,
        min_joins=min_joins,
        max_joins=max_joins,
        seed=seed,
        label_workers=workers,
    )
    return QueryGenerator(database, config).generate()


# ----------------------------------------------------------------------
# build: label a training corpus and fit a model (the builder's cost)
# ----------------------------------------------------------------------
def split_validation(labelled, seed: int, fraction: float = 0.1):
    """Seeded 90/10 split, explicit so the traced run can prefeaturize it."""
    order = np.random.default_rng(seed).permutation(len(labelled))
    held_out = set(order[: max(int(round(len(labelled) * fraction)), 1)].tolist())
    train = [q for position, q in enumerate(labelled) if position not in held_out]
    validation = [q for position, q in enumerate(labelled) if position in held_out]
    return train, validation


def build(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    spec = get_dataset("imdb")

    def setup():
        with ctx.tracer.span("datasets.generate"):
            return spec.generate(sizes.imdb_scale)

    database, setup_seconds = repeated_setup(ctx, setup)
    evaluation = labelled_queries(database, sizes.build_eval_queries, EVAL_SEED, 0, 2, LABEL_WORKERS)
    models: dict[int, MSCNEstimator] = {}
    bitmap = {"hits": 0, "misses": 0}

    def build_round(index: int, tracer) -> None:
        # Round 0 trains on the fixed corpus; its model gives the quality
        # metrics.  A traced round repeats the corpus of the round before it,
        # so the pair must produce bit-identical models.
        pair = index // 2 if ctx.tracer.enabled else index
        corpus_seed = TRAIN_SEED if pair == 0 else ctx.seed_for(f"corpus{pair}")
        with tracer.span("workload.label"):
            labelled = labelled_queries(database, sizes.build_train_queries, corpus_seed, 0, 2)
        train, validation = split_validation(labelled, MODEL_SEED)
        samples = MaterializedSamples(database, sample_size=sizes.num_samples, seed=MODEL_SEED)
        model = MSCNEstimator(
            database,
            MSCNConfig(
                epochs=sizes.build_epochs,
                batch_size=256,
                hidden_units=sizes.hidden_units,
                num_samples=sizes.num_samples,
                seed=MODEL_SEED,
            ),
            samples=samples,
        )
        with tracer.span("core.featurization.featurize"):
            train_set, validation_set = (
                model.featurizer.featurize_ragged(
                    [q.query for q in part],
                    cardinalities=np.array([q.cardinality for q in part], dtype=np.float64),
                )
                for part in (train, validation)
            )
        with tracer.span("core.trainer.fit"):
            model.fit(
                train, validation, train_dataset=train_set, validation_dataset=validation_set
            )
        if tracer.enabled:
            bitmap["hits"] += samples.bitmap_cache_hits
            bitmap["misses"] += samples.bitmap_cache_misses
        if index < 2:
            models[index] = model

    loop = closed_loop(build_round, ctx)

    truths = [q.cardinality for q in evaluation]
    queries = [q.query for q in evaluation]
    errors = q_errors(models[0].estimate_many(queries), truths)
    checks = {"qerror_finite": int(np.count_nonzero(~np.isfinite(errors)))}
    if ctx.tracer.enabled:
        traced_errors = q_errors(models[1].estimate_many(queries), truths)
        checks["traced_model_identical"] = int(not np.array_equal(errors, traced_errors))
    planned = [q for q in queries if q.num_joins >= 2][: sizes.plan_queries]
    report = evaluate_plan_quality(models[0], TrueCardinalityEstimator(database), planned)
    quality = {
        "qerror_median": float(np.median(errors)),
        "plan_cost_ratio": report.summary().mean,
    }

    layers = {}
    if ctx.tracer.enabled:
        tracer = ctx.tracer
        rounds = len(loop.traced)
        label_seconds = sum(durations_ms(tracer, "workload.label")) / 1000.0
        fit_ms = self_ms_per_op(tracer, "core.trainer.fit", rounds)
        layers = {
            **common_layers(ctx, loop),
            "workload.label_ms": self_ms_per_op(tracer, "workload.label", rounds),
            "workload.labels_per_s": rounds * sizes.build_train_queries / label_seconds,
            "core.featurization.featurize_ms": self_ms_per_op(
                tracer, "core.featurization.featurize", rounds
            ),
            "core.trainer.fit_ms": fit_ms,
            "core.trainer.epoch_ms": fit_ms / sizes.build_epochs,
            "db.sampling.bitmap_hit_rate": bitmap["hits"]
            / max(bitmap["hits"] + bitmap["misses"], 1),
        }
    return Outcome(setup_seconds, loop, quality, checks, layers)


# ----------------------------------------------------------------------
# serve_adhoc / serve_repeat: plan requests through the estimation service
# ----------------------------------------------------------------------
@dataclass
class ServingSystem:
    database: object
    model: MSCNEstimator
    fallback: PostgresEstimator
    service: EstimationService


def serving_setup(ctx: Context) -> tuple[ServingSystem, list[float]]:
    sizes = ctx.sizes
    spec = get_dataset("imdb")

    def setup() -> ServingSystem:
        with ctx.tracer.span("datasets.generate"):
            database = spec.generate(sizes.imdb_scale)
        with ctx.tracer.span("workload.label"):
            training = labelled_queries(database, sizes.serve_train_queries, TRAIN_SEED, 0, 2)
        model = MSCNEstimator(
            database,
            MSCNConfig(
                epochs=sizes.serve_epochs,
                batch_size=256,
                hidden_units=sizes.hidden_units,
                num_samples=sizes.num_samples,
                seed=MODEL_SEED,
            ),
        )
        with ctx.tracer.span("core.trainer.fit"):
            model.fit(training)
        fallback = PostgresEstimator(database)
        service = EstimationService(model, fallback=fallback, config=ServiceConfig(max_joins=2))
        return ServingSystem(database, model, fallback, service)

    return repeated_setup(ctx, setup, dispose=lambda system: system.service.close())


class Reference:
    """Deterministic per-sub-plan answers the service must reproduce.

    Sub-plans within the service's join range are answered by the model in
    one fused pass; the others by the fallback, matching how the service
    routes them.
    """

    def __init__(self, system: ServingSystem, queries) -> None:
        unique = {}
        for query in queries:
            for sub in query.connected_subqueries():
                unique.setdefault(sub.signature(), sub)
        max_joins = system.service.config.max_joins
        by_model = [sub for sub in unique.values() if sub.num_joins <= max_joins]
        by_fallback = [sub for sub in unique.values() if sub.num_joins > max_joins]
        self.values: dict[tuple, float] = {}
        for subs, estimator in ((by_model, system.model), (by_fallback, system.fallback)):
            if subs:
                estimates = estimator.estimate_many(subs)
                self.values.update(zip((sub.signature() for sub in subs), estimates.tolist()))

    def subplans(self, query) -> dict[frozenset, float]:
        return {
            frozenset(sub.tables): self.values[sub.signature()]
            for sub in query.connected_subqueries()
        }

    def mismatches(self, answers) -> int:
        """Served answers (see :func:`served_values`) off the reference by > rtol."""
        bad = 0
        for query, served in answers:
            expected = np.array(
                [self.values[sub.signature()] for sub in query.connected_subqueries()]
            )
            if not np.all(np.abs(served - expected) <= SERVED_RTOL * np.abs(expected)):
                bad += 1
        return bad


def served_values(query, cards: dict) -> np.ndarray:
    """A served sub-plan map as an array in ``connected_subqueries()`` order.

    Kept instead of the map itself, so the answers held for checking stay
    small.  A missing or extra sub-plan raises, which fails the request.
    """
    subs = query.connected_subqueries()
    if len(cards) != len(subs):
        raise ValueError(f"served {len(cards)} sub-plans for a query with {len(subs)}")
    return np.array([cards[frozenset(sub.tables)] for sub in subs])


class Traffic:
    """What the serving clients sent, and the answers kept for checking."""

    def __init__(self, pool_size: int) -> None:
        #: Requests sent per pool position.
        self.sent = np.zeros(pool_size, dtype=np.int64)
        #: ``(query, served_values(...))`` pairs.
        self.answers: list = []


def plan_request(service: EstimationService, query, tracer) -> dict:
    """One optimizer request: sub-plan estimates, then join enumeration."""
    with tracer.span("serving.estimate_subplans"):
        cards = service.estimate_subplans(query)
    with tracer.span("optimizer.enumerate"):
        enumerate_optimal_plan(query, cards)
    return cards


def serve(
    ctx: Context, system: ServingSystem, setup_seconds, pool, request, clients, traffic,
    trace_every=2,
):
    """Run the serving loop, then check the answers and measure quality."""
    samples = system.model.samples
    before = system.service.stats()
    misses = samples.bitmap_cache_misses
    loop = closed_loop(request, ctx, clients=clients, trace_every=trace_every)
    after = system.service.stats()
    misses = samples.bitmap_cache_misses - misses
    system.service.close()

    labelled = pool[: ctx.sizes.quality_queries]
    reference = Reference(
        system, [query for query, _ in traffic.answers] + [q.query for q in labelled]
    )
    checks = {"served_within_rtol": reference.mismatches(traffic.answers)}
    errors = q_errors(
        [reference.subplans(q.query)[frozenset(q.query.tables)] for q in labelled],
        [q.cardinality for q in labelled],
    )
    oracle = TrueCardinalityEstimator(system.database)
    planned = [q.query for q in labelled if q.num_joins >= 2][: ctx.sizes.plan_queries]
    quality = {
        "qerror_median": float(np.median(errors)),
        "plan_cost_ratio": mean(
            plan_quality_for_query(
                query, reference.subplans(query), subplan_estimates(oracle, query)
            ).cost_ratio
            for query in planned
        ),
    }
    layers = {}
    if ctx.tracer.enabled:
        subplans = np.array([len(q.query.connected_subqueries()) for q in pool])
        subplans_per_request = float(traffic.sent @ subplans) / max(traffic.sent.sum(), 1)
        layers = serving_layers(ctx, loop, before, after, misses, subplans_per_request)
    return Outcome(setup_seconds, loop, quality, checks, layers)


def serving_layers(
    ctx: Context, loop: Loop, before, after, bitmap_misses: int, subplans_per_request: float
) -> dict:
    """Per-layer metrics of a serving run (``before``/``after``: stats snapshots)."""
    tracer = ctx.tracer
    requests = loop.completed
    answered = max(after.num_queries - before.num_queries, 1)
    featurize = after.featurization_seconds - before.featurization_seconds
    infer = after.inference_seconds - before.inference_seconds
    fallback = after.fallback_seconds - before.fallback_seconds
    estimate = durations_ms(tracer, "serving.estimate_subplans")
    batches = {
        size: count - before.batch_size_histogram.get(size, 0)
        for size, count in after.batch_size_histogram.items()
    }
    bitmap_hits = after.bitmap_cache_hits - before.bitmap_cache_hits
    return {
        **common_layers(ctx, loop),
        "serving.estimate_ms_p50": tail_ms(estimate, 50),
        "serving.estimate_ms_p99": tail_ms(estimate, 99),
        "serving.featurize_ms": 1000.0 * featurize / requests,
        "serving.infer_ms": 1000.0 * infer / requests,
        "serving.fallback_ms": 1000.0 * fallback / requests,
        # Client time in the service not spent computing: batch window,
        # queueing and hand-offs between threads.
        "serving.wait_ms": mean(estimate) - 1000.0 * (featurize + infer + fallback) / requests,
        "serving.cache_hit_rate": (after.cache_hits - before.cache_hits) / answered,
        "serving.mean_batch_size": sum(size * count for size, count in batches.items())
        / max(sum(batches.values()), 1),
        "serving.fallback_rate": (after.fallback_queries - before.fallback_queries) / answered,
        "serving.shed": after.shed_queries - before.shed_queries,
        "serving.expired": after.expired_queries - before.expired_queries,
        "serving.degraded": after.degraded_queries - before.degraded_queries,
        "optimizer.enumerate_ms_p50": tail_ms(durations_ms(tracer, "optimizer.enumerate"), 50),
        "optimizer.subplans_per_request": subplans_per_request,
        "db.sampling.bitmap_hit_rate": bitmap_hits / max(bitmap_hits + bitmap_misses, 1),
    }


def serve_adhoc(ctx: Context) -> Outcome:
    system, setup_seconds = serving_setup(ctx)
    pool = labelled_queries(system.database, ctx.sizes.adhoc_pool, ADHOC_SEED, 1, 4, LABEL_WORKERS)
    queries = [q.query for q in pool]
    order = np.random.default_rng(ctx.seed_for("order")).permutation(len(queries)).tolist()
    traffic = Traffic(len(queries))

    def request(index: int, tracer) -> None:
        # Every query is new to the service: the pool is never sent twice.
        if index >= len(order):
            raise PoolExhausted
        position = order[index]
        query = queries[position]
        cards = plan_request(system.service, query, tracer)
        traffic.sent[position] += 1  # positions are distinct, so clients never share one
        traffic.answers.append((query, served_values(query, cards)))

    outcome = serve(ctx, system, setup_seconds, pool, request, 2, traffic)
    if outcome.loop.exhausted:
        print(
            f"serve_adhoc: all {len(queries)} pool queries were sent before "
            f"{ctx.seconds:g} s were up; the run measured {outcome.loop.wall_seconds:.1f} s",
            file=sys.stderr,
        )
    return outcome


def serve_repeat(ctx: Context) -> Outcome:
    system, setup_seconds = serving_setup(ctx)
    pool = labelled_queries(system.database, ctx.sizes.repeat_pool, REPEAT_SEED, 1, 4, LABEL_WORKERS)
    queries = [q.query for q in pool]
    weights = 1.0 / np.arange(1, len(queries) + 1) ** ZIPF_EXPONENT
    stream = (
        np.random.default_rng(ctx.seed_for("zipf"))
        .choice(len(queries), size=ZIPF_STREAM, p=weights / weights.sum())
        .tolist()
    )
    traffic = Traffic(len(queries))
    # Recurring queries: every pool query has been planned once before the
    # timed phase starts, so the loop measures re-planning, not first misses.
    first = [plan_request(system.service, query, NULL_TRACER) for query in queries]
    traffic.answers.extend(
        (query, served_values(query, cards)) for query, cards in zip(queries, first)
    )

    def request(index: int, tracer) -> None:
        # A longer run replays the stream from its start: still Zipf traffic.
        position = stream[index % len(stream)]
        query = queries[position]
        cards = plan_request(system.service, query, tracer)
        traffic.sent[position] += 1
        # A repeat equal to the warm-up answer is checked with it; only
        # differing answers (after a cache eviction) are kept separately.
        if cards != first[position]:
            traffic.answers.append((query, served_values(query, cards)))

    # Requests take tens of microseconds: a 5% sample of them is traced.
    return serve(ctx, system, setup_seconds, pool, request, 1, traffic, trace_every=20)


# ----------------------------------------------------------------------
# truth_large: exact sub-plan counts and plan quality on a million-row fact
# ----------------------------------------------------------------------
def truth_large(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    spec = get_dataset("retail")

    def setup():
        with ctx.tracer.span("datasets.generate"):
            database = spec.generate(sizes.retail_scale)
        return database, PostgresEstimator(database)

    (database, postgres), setup_seconds = repeated_setup(ctx, setup)
    # The same number of 2-, 3- and 4-join queries, so a pass's work does not
    # hinge on a draw of join counts.  The timed passes evaluate the first
    # queries of each join count; quality and checks use the whole pool.  It
    # is labelled on one thread: two threads joining million-row tables at
    # once would set the run's peak memory by how their joins overlap.
    by_joins = [
        labelled_queries(
            database, sizes.truth_quality_per_join_count, TRUTH_SEED + joins, joins, joins
        )
        for joins in (2, 3, 4)
    ]
    pool = [labelled for group in by_joins for labelled in group]
    timed = [q.query for group in by_joins for q in group[: sizes.truth_timed_per_join_count]]
    results: list[dict] = []
    memo = dict.fromkeys(("cache_hits", "cache_misses", "scan_reuse_hits", "scan_reuse_misses"), 0)

    def evaluate_pass(index: int, tracer) -> None:
        # One plan-quality evaluation of the timed queries from cold memos, in
        # an order drawn from the seed (the memos make later queries cheaper).
        order = np.random.default_rng(ctx.seed_for(f"pass{index}")).permutation(len(timed))
        batch = [timed[position] for position in order]
        oracle = TrueCardinalityEstimator(database)
        if tracer.enabled:
            outcome = []
            for query in batch:
                with tracer.span("estimators.postgres.subplans"):
                    estimated = subplan_estimates(postgres, query)
                with tracer.span("estimators.true.subplans"):
                    truth = subplan_estimates(oracle, query)
                with tracer.span("optimizer.enumerate"):
                    outcome.append(plan_quality_for_query(query, estimated, truth))
        else:
            outcome = evaluate_plan_quality(postgres, oracle, batch).results
        for name in memo:  # counters only: a pass's memos are dropped with it
            memo[name] += getattr(oracle, name)
        results.append({result.query.signature(): result.cost_ratio for result in outcome})

    loop = closed_loop(evaluate_pass, ctx)

    # Untimed: one plan-quality evaluation of the whole pool from cold memos
    # gives the quality metrics, the checks' truths and the passes' reference.
    queries = [q.query for q in pool]
    oracle = TrueCardinalityEstimator(database)
    report = evaluate_plan_quality(postgres, oracle, queries)
    reference = {result.query.signature(): result.cost_ratio for result in report.results}
    estimated = [subplan_estimates(postgres, query) for query in queries]
    truths = [subplan_estimates(oracle, query) for query in queries]
    checks = {
        "cost_ratio_at_least_one": sum(
            not ratio >= 1.0 for ratios in (*results, reference) for ratio in ratios.values()
        ),
        "passes_agree": sum(
            ratios != {key: reference[key] for key in ratios} for ratios in results
        ),
        "truth_plans_optimal": sum(
            plan_quality_for_query(query, truth, truth).cost_ratio != 1.0
            for query, truth in zip(queries, truths)
        ),
        "top_level_matches_label": sum(
            truth[frozenset(q.query.tables)] != max(q.cardinality, 1)
            for q, truth in zip(pool, truths)
        ),
        "memo_free_executor_agrees": 0,
    }
    subplans = [sub for query in queries for sub in query.connected_subqueries()]
    picks = np.random.default_rng(ctx.seed_for("checks")).choice(
        len(subplans), size=min(TRUTH_CHECKS, len(subplans)), replace=False
    )
    fresh = CardinalityExecutor(database)
    for pick in picks.tolist():
        if oracle.estimate(subplans[pick]) != max(fresh.execute(subplans[pick]), 1):
            checks["memo_free_executor_agrees"] += 1
    errors = q_errors(
        [value for table in estimated for value in table.values()],
        [truth[key] for table, truth in zip(estimated, truths) for key in table],
    )
    quality = {
        "qerror_median": float(np.median(errors)),
        "plan_cost_ratio": mean(reference.values()),
    }

    layers = {}
    if ctx.tracer.enabled:
        tracer = ctx.tracer
        traced = len(loop.traced)
        layers = {
            **common_layers(ctx, loop),
            "estimators.postgres.subplans_ms": self_ms_per_op(
                tracer, "estimators.postgres.subplans", traced
            ),
            "estimators.true.subplans_ms": self_ms_per_op(
                tracer, "estimators.true.subplans", traced
            ),
            "optimizer.enumerate_ms_p50": tail_ms(durations_ms(tracer, "optimizer.enumerate"), 50),
            "optimizer.subplans_per_request": mean(
                len(query.connected_subqueries()) for query in timed
            ),
            "db.executor.memo_hit_rate": memo["cache_hits"]
            / max(memo["cache_hits"] + memo["cache_misses"], 1),
            "db.executor.scan_reuse_rate": memo["scan_reuse_hits"]
            / max(memo["scan_reuse_hits"] + memo["scan_reuse_misses"], 1),
        }
    return Outcome(setup_seconds, loop, quality, checks, layers)


WORKLOADS: dict[str, Callable[[Context], Outcome]] = {
    "build": build,
    "serve_adhoc": serve_adhoc,
    "serve_repeat": serve_repeat,
    "truth_large": truth_large,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one workload; return its record (metrics, checks, quality, tracer)."""
    tracer = Tracer() if trace else NULL_TRACER
    ctx = Context(seed=seed, seconds=seconds, sizes=sizes, tracer=tracer)
    outcome = WORKLOADS[name](ctx)
    loop = outcome.loop
    for failure in loop.failures[:10]:
        print(failure, file=sys.stderr)
    failed_checks = sum(outcome.checks.values())
    if trace:
        metrics = outcome.layers
    else:
        metrics = {
            "setup_s": median(outcome.setup_seconds),
            "op_ms_p50": 1000.0 * median(loop.untraced),
            "ops_per_s": loop.completed / loop.wall_seconds,
            **outcome.quality,
            "peak_rss_mb": loop.peak_rss_mb,
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not loop.failures and failed_checks == 0,
        "attempted": loop.attempted,
        "failed": len(loop.failures) + failed_checks,
        "metrics": metrics,
        "quality": outcome.quality,
        "checks": outcome.checks,
        "setup_seconds": outcome.setup_seconds,
        "tracer": tracer,
    }
