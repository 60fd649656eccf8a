"""Differential test of every executor configuration against the nested loop.

Random tree-shaped schemas of 2-4 tables get join keys from one of several
key domains per edge: dense ``1..N`` (keys are their own domain codes),
sparse (widely spaced ids), negative, and huge (at or above 2**40), the last
three of which count through rank codes.  Foreign keys may dangle.  Every
connected sub-plan of a query with random predicates must then count exactly
what the nested loop in ``reference_executor.py`` counts, with the
scan memo and the result cache each on and off — twice, so the second pass
is served by whatever the memos kept — and on a
:class:`~repro.db.sampled.SampledCardinalityExecutor` whose budget covers
every table (which makes its labels exact).  One whose budget is half the
largest table must observe what the nested loop counts on its sampled
snapshot, whose row-sampled keys count through rank codes.

Each configuration, as its own test case, must also agree on cyclic join
graphs (the hash-join expansion path) and joins against an empty table in
every key domain, on empty and singleton tables, and with the labels of a
real generated workload; the default executor must agree on random chains.
``execute_subplans``, which counts a query's whole sub-plan fan-out in one
pass, must agree sub-plan by sub-plan on star, chain and snowflake trees in
every key domain, with tied root sizes, empty qualifying sides, roots that
span several row blocks, and on the cyclic and disconnected fallbacks; it
must also leave no garbage cycle, and a count reaching 2**53 must raise.
The sub-plan consistency properties join enumeration relies on, and the
memos' counters, LRU bounds and capacity checks, are pinned down by the
short tests at the end.
"""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_executor import nested_loop_cardinality

from repro.db import executor as executor_module
from repro.db.executor import CardinalityExecutor
from repro.db.predicates import selection_mask
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.sampled import SampledCardinalityExecutor
from repro.db.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.db.table import Database, Table
from repro.workload.generator import QueryGenerator, WorkloadConfig

# Maps base ids 0..N+1 into each key domain; every map is injective, so the
# join structure is the same in every domain.
KEY_DOMAINS = {
    "dense": lambda keys: keys,
    "sparse": lambda keys: keys * 100_003 + 17,
    "negative": lambda keys: keys - 40,
    "huge": lambda keys: keys * 2**40 + 2**40,
    "negative_and_huge": lambda keys: keys * 2**40 - 3 * 2**40,
}

# (scan_cache_capacity, cache_capacity)
CONFIGURATIONS = list(itertools.product((None, 64), (None, 64)))


def configured_executor(database: Database, configuration: tuple) -> CardinalityExecutor:
    memo, cache = configuration
    return CardinalityExecutor(database, scan_cache_capacity=memo, cache_capacity=cache)


@pytest.fixture(params=CONFIGURATIONS, ids=lambda c: "memo={}-cache={}".format(*c))
def configuration(request):
    return request.param


def assert_counts(database: Database, configuration: tuple, expected: dict) -> None:
    """The configured executor counts each query as ``expected`` maps it, twice."""
    executor = configured_executor(database, configuration)
    for _ in range(2):
        for query, count in expected.items():
            assert executor.execute(query) == count, query


def tree_database(parents, domains, sizes, rng: np.random.Generator):
    """Tables ``t0..`` where ``t{i}.ref`` joins ``t{parents[i]}.id``, and the
    unfiltered query joining them all.

    ``domains`` names each table's key domain and ``sizes`` its row count;
    ``rng`` draws the ``val`` columns and the references.
    """
    schemas, tables, foreign_keys = [], {}, []
    for index, parent in enumerate(parents):
        name = f"t{index}"
        columns = [ColumnSchema("id", "primary_key"), ColumnSchema("val")]
        data = {
            "id": KEY_DOMAINS[domains[index]](np.arange(1, sizes[index] + 1, dtype=np.int64)),
            "val": rng.integers(0, 4, sizes[index]),
        }
        if parent is not None:
            columns.append(ColumnSchema("ref", "foreign_key"))
            # Base ids 0 and N+1 dangle: no parent row carries them.
            base_refs = rng.integers(0, sizes[parent] + 2, sizes[index])
            data["ref"] = KEY_DOMAINS[domains[parent]](base_refs.astype(np.int64))
            foreign_keys.append(ForeignKey(name, "ref", f"t{parent}", "id"))
        schema = TableSchema(name, tuple(columns))
        schemas.append(schema)
        tables[name] = Table(schema, data)
    database = Database(Schema(tables=tuple(schemas), foreign_keys=tuple(foreign_keys)), tables)
    query = Query(
        tables=tuple(f"t{index}" for index in range(len(parents))),
        joins=tuple(
            JoinCondition(f"t{index}", "ref", f"t{parent}", "id")
            for index, parent in enumerate(parents)
            if parent is not None
        ),
    )
    return database, query


@st.composite
def tree_databases(draw):
    """A random tree of 2-4 tables and a query with random predicates over it."""
    num_tables = draw(st.integers(2, 4))
    parents = [None] + [draw(st.integers(0, index - 1)) for index in range(1, num_tables)]
    domains = [draw(st.sampled_from(sorted(KEY_DOMAINS))) for _ in range(num_tables)]
    sizes = [draw(st.integers(1, 6)) for _ in range(num_tables)]
    seed = draw(st.integers(0, 2**32 - 1))
    database, query = tree_database(parents, domains, sizes, np.random.default_rng(seed))

    predicates = []
    for index in range(num_tables):
        if draw(st.booleans()):
            operator = draw(st.sampled_from(("=", "<", ">")))
            predicates.append(Predicate(f"t{index}", "val", operator, draw(st.integers(0, 3))))
    return database, Query(query.tables, query.joins, tuple(predicates))


@given(tree_databases())
@settings(max_examples=60, deadline=None)
def test_every_configuration_matches_nested_loop(case):
    database, query = case
    # Sub-plans share base scans, so a memo-on executor also serves the later
    # sub-plans from scans cached by the earlier ones.
    expected = {
        subquery: nested_loop_cardinality(database, subquery)
        for subquery in query.connected_subqueries()
    }
    executors = [configured_executor(database, c) for c in CONFIGURATIONS]
    for _ in range(2):
        for subquery, count in expected.items():
            for configuration, executor in zip(CONFIGURATIONS, executors):
                assert executor.execute(subquery) == count, (configuration, subquery)
    largest = max(database.table(name).num_rows for name in database.table_names)
    sampled = SampledCardinalityExecutor(database, sample_rows=largest)
    for subquery, count in expected.items():
        label = sampled.execute(subquery)
        assert label.exact and label.observed == count
    partial = SampledCardinalityExecutor(database, sample_rows=max(1, largest // 2))
    for subquery in expected:
        label = partial.execute(subquery)
        assert label.observed == nested_loop_cardinality(partial.sampled_database, subquery)


# ---------------------------------------------------------------------------
# Fixed inputs: cyclic graphs, degenerate tables, a real workload
# ---------------------------------------------------------------------------
def chain_database(rng: np.random.Generator, num_tables: int, domain: str = "dense") -> Database:
    """A random chain-joined database with tiny tables and dangling refs.

    ``domain`` maps every ``id`` and ``ref`` through :data:`KEY_DOMAINS`.
    """
    to_domain = KEY_DOMAINS[domain]
    table_schemas, foreign_keys, tables = [], [], {}
    previous_rows = 0
    for index in range(num_tables):
        columns = [ColumnSchema("id", "primary_key"), ColumnSchema("val")]
        num_rows = int(rng.integers(2, 7))
        data = {
            "id": to_domain(np.arange(num_rows, dtype=np.int64)),
            "val": rng.integers(0, 4, size=num_rows).astype(np.int64),
        }
        if index > 0:
            columns.append(ColumnSchema("ref", "foreign_key"))
            foreign_keys.append(ForeignKey(f"t{index}", "ref", f"t{index - 1}", "id"))
            refs = rng.integers(0, previous_rows + 1, size=num_rows).astype(np.int64)
            data["ref"] = to_domain(refs)
        previous_rows = num_rows
        schema = TableSchema(name=f"t{index}", columns=tuple(columns))
        table_schemas.append(schema)
        tables[schema.name] = Table(schema, data)
    return Database(Schema(tables=tuple(table_schemas), foreign_keys=tuple(foreign_keys)), tables)


def chain_query(rng: np.random.Generator, database: Database) -> Query:
    names = database.schema.table_names
    num_tables = int(rng.integers(1, len(names) + 1))
    start = int(rng.integers(0, len(names) - num_tables + 1))
    chosen = names[start : start + num_tables]
    joins = tuple(
        JoinCondition(chosen[i + 1], "ref", chosen[i], "id") for i in range(num_tables - 1)
    )
    predicates = []
    for table in chosen:
        if rng.random() < 0.5:
            operator = ("=", "<", ">")[int(rng.integers(3))]
            predicates.append(Predicate(table, "val", operator, int(rng.integers(0, 4))))
    return Query(tables=chosen, joins=joins, predicates=tuple(predicates))


@pytest.mark.parametrize("seed", range(8))
def test_tree_path_matches_nested_loop(seed):
    """Chains of 2-4 tables with random sub-ranges and predicates."""
    rng = np.random.default_rng(seed)
    database = chain_database(rng, num_tables=int(rng.integers(2, 5)))
    executor = CardinalityExecutor(database)
    for _ in range(6):
        query = chain_query(rng, database)
        assert executor.execute(query) == nested_loop_cardinality(database, query)


@pytest.mark.parametrize("domain", sorted(KEY_DOMAINS))
@pytest.mark.parametrize("seed", range(4))
def test_cyclic_queries_take_the_expansion_path(seed, domain, configuration):
    """A parallel t1-t0 edge over the same pair forms a cycle."""
    database = chain_database(np.random.default_rng(100 + seed), num_tables=3, domain=domain)
    cyclic = Query(
        tables=("t0", "t1", "t2"),
        joins=(
            JoinCondition("t1", "ref", "t0", "id"),
            JoinCondition("t2", "ref", "t1", "id"),
            JoinCondition("t0", "id", "t1", "ref"),
        ),
        predicates=(Predicate("t2", "val", "<", 3),) if seed % 2 else (),
    )
    assert not CardinalityExecutor._is_tree(cyclic.tables, cyclic.joins)
    assert_counts(database, configuration, {cyclic: nested_loop_cardinality(database, cyclic)})


def single_table_database(num_rows: int) -> Database:
    schema = TableSchema("t", (ColumnSchema("id", "primary_key"), ColumnSchema("val")))
    table = Table(
        schema, {"id": np.arange(num_rows, dtype=np.int64), "val": np.arange(num_rows)}
    )
    return Database(Schema(tables=(schema,)), {"t": table})


@pytest.mark.parametrize("num_rows", (0, 1))
def test_empty_and_singleton_scans(num_rows, configuration):
    # Row 0 matches the predicate when present.
    filtered = Query(tables=("t",), predicates=(Predicate("t", "val", "=", 0),))
    assert_counts(
        single_table_database(num_rows),
        configuration,
        {Query(tables=("t",)): num_rows, filtered: num_rows},
    )


@pytest.mark.parametrize("domain", sorted(KEY_DOMAINS))
def test_join_against_empty_side(domain, configuration):
    dim_schema = TableSchema("dim", (ColumnSchema("id", "primary_key"),))
    fact_schema = TableSchema(
        "fact", (ColumnSchema("id", "primary_key"), ColumnSchema("dim_id", "foreign_key"))
    )
    schema = Schema(
        tables=(dim_schema, fact_schema),
        foreign_keys=(ForeignKey("fact", "dim_id", "dim", "id"),),
    )
    empty = np.array([], dtype=np.int64)
    database = Database(
        schema,
        {
            "dim": Table(dim_schema, {"id": KEY_DOMAINS[domain](np.array([1, 2]))}),
            "fact": Table(fact_schema, {"id": empty, "dim_id": empty}),
        },
    )
    join = Query(tables=("dim", "fact"), joins=(JoinCondition("fact", "dim_id", "dim", "id"),))
    assert_counts(database, configuration, {join: 0, Query(tables=("dim",)): 2})
    # The empty scan returns 0 before any edge is counted, so fold the empty
    # column over the edge's key domain (rank-coded for sparse, negative and
    # huge keys) directly: every total is zero, and so is every dim weight.
    domain_codes = configured_executor(database, configuration)._key_domain(join.joins[0])
    totals = domain_codes.fold(empty, np.ones(0))
    assert totals.shape == (domain_codes.size,) and not totals.any()
    weights = totals[domain_codes.codes(database.table("dim").column("id"))]
    assert weights.shape == (2,) and not weights.any()


def test_two_table_exact_counts(two_table_database, configuration):
    join = (JoinCondition("fact", "dim_id", "dim", "id"),)
    filtered = Query(
        tables=("dim", "fact"), joins=join, predicates=(Predicate("dim", "category", "=", 10),)
    )
    assert_counts(
        two_table_database,
        configuration,
        {Query(tables=("dim", "fact"), joins=join): 10, filtered: 3, Query(tables=("fact",)): 10},
    )


def test_reproduces_workload_labels(tiny_database, tiny_workload, configuration):
    # The workload was labelled by the default whole-array executor.
    assert_counts(
        tiny_database,
        configuration,
        {entry.query: entry.cardinality for entry in tiny_workload[:20]},
    )


# ---------------------------------------------------------------------------
# Sub-plan fan-out: every connected sub-plan counted in one core pass
# ---------------------------------------------------------------------------
# Parent index per table.  A star's leaves, a chain's ends and a snowflake's
# arms each take the root when they hold the most qualifying rows, so
# sub-plans the root does not top and messages over several levels both run.
SHAPES = {
    "star": (None, 0, 0, 0),
    "chain": (None, 0, 1, 2),
    "snowflake": (None, 0, 0, 1, 2),
}


def fanout_case(shape: str, domain: str, seed: int, sizes=None, filtered: bool = True):
    """A ``shape`` tree in one key domain and its query, with random
    predicates unless ``filtered`` is false."""
    rng = np.random.default_rng(seed)
    parents = SHAPES[shape]
    if sizes is None:
        sizes = rng.integers(1, 7, len(parents)).tolist()
    database, query = tree_database(parents, [domain] * len(parents), sizes, rng)
    predicates = ()
    if filtered:
        predicates = tuple(
            Predicate(table, "val", ("=", "<", ">")[int(rng.integers(3))], int(rng.integers(4)))
            for table in query.tables
            if rng.random() < 0.5
        )
    return database, Query(query.tables, query.joins, predicates)


def assert_fanout_matches_nested_loop(database: Database, query: Query) -> None:
    """Every configuration's ``execute_subplans`` counts what the nested loop
    counts for each connected sub-plan, twice (the second pass is served by
    whatever the memos kept), and agrees with per-sub-plan ``execute``."""
    subqueries = query.connected_subqueries()
    expected = [nested_loop_cardinality(database, subquery) for subquery in subqueries]
    for configuration in CONFIGURATIONS:
        executor = configured_executor(database, configuration)
        for _ in range(2):
            assert executor.execute_subplans(query) == expected, configuration
        fresh = configured_executor(database, configuration)
        assert [fresh.execute(subquery) for subquery in subqueries] == expected


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("domain", sorted(KEY_DOMAINS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fanout_matches_nested_loop(shape, domain, seed):
    assert_fanout_matches_nested_loop(*fanout_case(shape, domain, 300 + seed))


@pytest.mark.parametrize("domain", sorted(KEY_DOMAINS))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fanout_with_tied_root_sizes(shape, domain):
    """Every table holds 4 rows: the root is the first table in query order,
    so reversing the order re-roots the tree at the other end."""
    sizes = [4] * len(SHAPES[shape])
    database, query = fanout_case(shape, domain, 7, sizes, filtered=False)
    assert_fanout_matches_nested_loop(database, query)
    reversed_query = Query(query.tables[::-1], query.joins, query.predicates)
    assert_fanout_matches_nested_loop(database, reversed_query)


@pytest.mark.parametrize("domain", ("dense", "negative_and_huge"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fanout_with_an_empty_qualifying_side(shape, domain):
    """One table at a time qualifies no row: every sub-plan holding it counts
    0, the others count as usual."""
    database, query = fanout_case(shape, domain, 11, filtered=False)
    for table in query.tables:
        empty = Query(query.tables, query.joins, (Predicate(table, "val", ">", 3),))
        assert_fanout_matches_nested_loop(database, empty)


@pytest.mark.parametrize("filtered", (False, True), ids=("unfiltered", "filtered"))
@pytest.mark.parametrize("domain", ("dense", "sparse", "negative_and_huge"))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fanout_root_spans_several_blocks(shape, domain, filtered, monkeypatch):
    """Three-row root blocks: each block's partial products add up, whether
    the root's keys are sliced (unfiltered) or gathered (filtered)."""
    monkeypatch.setattr(executor_module, "_ROOT_BLOCK_ROWS", 3)
    rng = np.random.default_rng(13)
    sizes = rng.integers(4, 8, len(SHAPES[shape])).tolist()
    sizes[int(rng.integers(len(sizes)))] = 10  # the root: four blocks unfiltered
    assert_fanout_matches_nested_loop(*fanout_case(shape, domain, 17, sizes, filtered))


@pytest.mark.parametrize("domain", sorted(KEY_DOMAINS))
def test_fanout_falls_back_on_cyclic_and_disconnected_queries(domain):
    """Both fall back to ``execute`` per sub-plan, memo traffic included."""
    database = chain_database(np.random.default_rng(400), num_tables=3, domain=domain)
    cyclic = Query(
        tables=("t0", "t1", "t2"),
        joins=(
            JoinCondition("t1", "ref", "t0", "id"),
            JoinCondition("t2", "ref", "t1", "id"),
            JoinCondition("t0", "id", "t1", "ref"),
        ),
    )
    disconnected = Query(
        tables=("t0", "t1", "t2"),
        joins=(JoinCondition("t1", "ref", "t0", "id"),),
        predicates=(Predicate("t2", "val", "<", 3),),
    )
    for query in (cyclic, disconnected):
        assert_fanout_matches_nested_loop(database, query)
        fanout, loop = (CardinalityExecutor(database, cache_capacity=64) for _ in range(2))
        fanout.execute_subplans(query)
        for subquery in query.connected_subqueries():
            loop.execute(subquery)
        assert (fanout.cache_hits, fanout.cache_misses) == (loop.cache_hits, loop.cache_misses)


def hub_database(num_children: int, rows_per_child: int) -> Database:
    """One hub row and ``num_children`` tables whose every row joins it."""
    hub = TableSchema("hub", (ColumnSchema("id", "primary_key"),))
    schemas, tables, foreign_keys = [hub], {"hub": Table(hub, {"id": np.array([1])})}, []
    for index in range(num_children):
        name = f"c{index}"
        schema = TableSchema(name, (ColumnSchema("hub_id", "foreign_key"),))
        schemas.append(schema)
        tables[name] = Table(schema, {"hub_id": np.ones(rows_per_child, dtype=np.int64)})
        foreign_keys.append(ForeignKey(name, "hub_id", "hub", "id"))
    return Database(Schema(tables=tuple(schemas), foreign_keys=tuple(foreign_keys)), tables)


def test_count_reaching_2_53_raises_overflow_error():
    """10**16 rows cannot be counted exactly in float64; the executor says so
    instead of returning a rounded label, and still counts 10**12 exactly."""
    database = hub_database(4, 10_000)
    names = database.schema.table_names
    query = Query(
        tables=names,
        joins=tuple(JoinCondition(name, "hub_id", "hub", "id") for name in names[1:]),
    )
    executor = CardinalityExecutor(database, cache_capacity=64)
    with pytest.raises(OverflowError, match="c3"):
        executor.execute(query)
    with pytest.raises(OverflowError, match="c3"):
        executor.execute_subplans(query)
    three_children = query.subquery(names[:4])
    assert executor.execute(three_children) == 10**12
    assert executor.execute_subplans(three_children)[-1] == 10**12


def test_fanout_leaves_no_garbage_cycle(tiny_database, probe_queries):
    """A fan-out frees every array it made by reference counting alone: a
    reference cycle would keep each pass's arrays alive until a cyclic
    collection."""
    executor = CardinalityExecutor(tiny_database, cache_capacity=4096, scan_cache_capacity=256)
    queries = probe_queries[:20]
    for query in queries:
        query.connected_subqueries()
    gc.collect()
    gc.disable()
    try:
        for query in queries:
            executor.execute_subplans(query)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Sub-plan consistency
# ---------------------------------------------------------------------------
def distinct_projections(database: Database, query: Query, subset: frozenset[str]) -> int:
    """Distinct projections of the nested-loop result onto ``subset`` tables."""
    tables = [database.table(name) for name in query.tables]
    positions = {table.name: i for i, table in enumerate(tables)}
    qualifying = [
        np.flatnonzero(selection_mask(table, query.predicates_on(table.name)))
        for table in tables
    ]
    kept = [positions[name] for name in query.tables if name in subset]
    projections = set()
    for combination in itertools.product(*qualifying):
        if all(
            database.table(j.left_table).column(j.left_column)[combination[positions[j.left_table]]]
            == database.table(j.right_table).column(j.right_column)[
                combination[positions[j.right_table]]
            ]
            for j in query.joins
        ):
            projections.add(tuple(combination[i] for i in kept))
    return len(projections)


@pytest.mark.parametrize("seed", range(6))
def test_subplan_consistency(seed):
    """A non-empty query has non-empty sub-plans, each at least as large as
    the distinct projections of the query's result onto its tables (the raw
    ``|sub| >= |super|`` does not hold: a PK/FK join can fan one row out)."""
    rng = np.random.default_rng(200 + seed)
    database = chain_database(rng, num_tables=3)
    executor = CardinalityExecutor(database)
    for _ in range(4):
        query = chain_query(rng, database)
        total = executor.execute(query)
        for subset in query.connected_table_subsets():
            sub_cardinality = executor.execute(query.subquery(subset))
            if total > 0:
                assert sub_cardinality > 0
            assert sub_cardinality >= distinct_projections(database, query, subset)


# ---------------------------------------------------------------------------
# Memos: counters, LRU bounds, capacity checks
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def probe_queries(tiny_database):
    """A mixed 0-3-join query set drawn (unlabelled) from the tiny database."""
    generator = QueryGenerator(
        tiny_database, WorkloadConfig(num_queries=40, max_joins=3, seed=23)
    )
    return [generator._draw_query() for _ in range(40)]


class TestResultCache:
    def test_hits_misses_and_reordered_queries(self, two_table_database):
        executor = CardinalityExecutor(two_table_database, cache_capacity=8)
        query = Query(tables=("dim", "fact"), joins=(JoinCondition("fact", "dim_id", "dim", "id"),))
        assert executor.execute(query) == executor.execute(query) == 10
        assert (executor.cache_hits, executor.cache_misses) == (1, 1)
        # Semantically identical query with different ordering shares the entry.
        reordered = Query(
            tables=("fact", "dim"), joins=(JoinCondition("dim", "id", "fact", "dim_id"),)
        )
        assert executor.execute(reordered) == 10
        assert executor.cache_hits == 2

    def test_lru_eviction(self, two_table_database):
        executor = CardinalityExecutor(two_table_database, cache_capacity=1)
        dim_only, fact_only = Query(tables=("dim",)), Query(tables=("fact",))
        executor.execute(dim_only)
        executor.execute(fact_only)  # evicts dim_only
        executor.execute(dim_only)
        assert (executor.cache_hits, executor.cache_misses) == (0, 3)


class TestScanMemo:
    def test_subplan_fanout_scans_each_predicate_set_once(self, tiny_database, probe_queries):
        executor = CardinalityExecutor(tiny_database, scan_cache_capacity=256)
        query = max(probe_queries, key=lambda q: q.num_joins)
        assert query.num_joins >= 2
        for subquery in query.connected_subqueries():
            executor.execute(subquery)
        assert executor.scan_reuse_hits > 0
        distinct_scans = {
            (table, tuple(sorted((p.column, p.operator.value, p.value)
                                 for p in subquery.predicates_on(table))))
            for subquery in query.connected_subqueries()
            for table in subquery.tables
        }
        assert executor.scan_reuse_misses == len(distinct_scans)

    def test_lru_eviction_bounds_memo(self, tiny_database, probe_queries):
        executor = CardinalityExecutor(tiny_database, scan_cache_capacity=2)
        for query in probe_queries[:12]:
            executor.execute(query)
        assert len(executor._scan_cache) <= 2


def test_memos_off_by_default(two_table_database):
    executor = CardinalityExecutor(two_table_database)
    query = Query(tables=("dim", "fact"), joins=(JoinCondition("fact", "dim_id", "dim", "id"),))
    executor.execute(query)
    executor.execute(query)
    assert executor.cache_hits == executor.cache_misses == 0
    assert executor.scan_reuse_hits == executor.scan_reuse_misses == 0


@pytest.mark.parametrize("option", ("cache_capacity", "scan_cache_capacity"))
def test_non_positive_settings_rejected(two_table_database, option):
    with pytest.raises(ValueError):
        CardinalityExecutor(two_table_database, **{option: 0})
