"""Tests of the dataset registry, the specs and the new generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    WorkloadRecommendation,
    dataset_names,
    get_dataset,
    register_dataset,
    registered_datasets,
)
from repro.datasets.forum import FORUM_SPEC, ForumConfig, generate_forum
from repro.datasets.retail import RETAIL_SPEC, RetailConfig, generate_retail
from repro.db.table import Database

TINY_SCALE = 0.05


@pytest.fixture(scope="module")
def tiny_databases():
    """One tiny generated snapshot per registered dataset."""
    return {
        spec.name: spec.generate(scale=TINY_SCALE, seed=7)
        for spec in registered_datasets()
    }


class TestRegistry:
    def test_builtins_are_registered(self):
        names = set(dataset_names())
        assert {"imdb", "retail", "forum"} <= names

    def test_get_dataset_unknown_name(self):
        with pytest.raises(KeyError, match="registered"):
            get_dataset("does-not-exist")

    def test_reregistering_same_spec_is_noop(self):
        spec = get_dataset("retail")
        assert register_dataset(spec) is spec

    def test_conflicting_registration_requires_replace(self):
        existing = get_dataset("forum")
        imposter = DatasetSpec(
            name="forum",
            description="imposter",
            topology="star",
            schema_factory=existing.schema_factory,
            generator=existing.generator,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_dataset(imposter)
        # replace=True swaps it in; restore the original even on failure so
        # a broken assertion cannot poison the registry for later tests.
        try:
            assert register_dataset(imposter, replace=True) is imposter
        finally:
            register_dataset(existing, replace=True)
        assert get_dataset("forum") is existing


class TestSpecs:
    @pytest.mark.parametrize("name", ["imdb", "retail", "forum"])
    def test_generated_database_matches_schema(self, name, tiny_databases):
        spec = get_dataset(name)
        database = tiny_databases[name]
        assert isinstance(database, Database)
        assert database.schema.table_names == spec.schema.table_names
        for table_name in spec.schema.table_names:
            assert database.table(table_name).num_rows > 0

    @pytest.mark.parametrize("name", ["imdb", "retail", "forum"])
    def test_generation_is_deterministic(self, name, tiny_databases):
        spec = get_dataset(name)
        first = tiny_databases[name]
        second = spec.generate(scale=TINY_SCALE, seed=7)
        for table_name in spec.schema.table_names:
            for column in spec.schema.table(table_name).column_names:
                np.testing.assert_array_equal(
                    first.table(table_name).column(column),
                    second.table(table_name).column(column),
                )

    @pytest.mark.parametrize("name", ["imdb", "retail", "forum"])
    def test_foreign_keys_reference_existing_rows(self, name, tiny_databases):
        spec = get_dataset(name)
        database = tiny_databases[name]
        for foreign_key in spec.schema.foreign_keys:
            referencing = database.table(foreign_key.table).column(foreign_key.column)
            referenced = database.table(foreign_key.ref_table).column(foreign_key.ref_column)
            assert np.isin(referencing, referenced).all(), foreign_key.join_key

    def test_star_and_snowflake_metadata(self):
        retail_graph = get_dataset("retail").join_graph()
        assert retail_graph.diameter == 2  # dimension - fact - dimension
        assert retail_graph.max_joins_per_query == 4
        forum_graph = get_dataset("forum").join_graph()
        assert forum_graph.diameter >= 4  # votes -> ... -> forums chain
        assert forum_graph.max_joins_per_query == 5

    def test_workload_config_clamps_to_join_graph(self):
        spec = DatasetSpec(
            name="clamped",
            description="two tables, one join edge",
            topology="star",
            schema_factory=get_dataset("retail").schema_factory,
            generator=get_dataset("retail").generator,
            workload=WorkloadRecommendation(max_joins=9, scale_max_joins=9),
        )
        assert spec.training_workload_config().max_joins == 4

    def test_describe_mentions_topology_and_diameter(self):
        text = get_dataset("forum").describe()
        assert "snowflake" in text
        assert "diameter 4" in text

    def test_generate_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            get_dataset("imdb").generate(scale=0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
    def test_generate_rejects_non_finite_scale(self, scale):
        # Caught at the spec, naming the value, before any generator runs.
        for spec in registered_datasets():
            with pytest.raises(ValueError, match=repr(scale)):
                spec.generate(scale=scale)


def _join_selectivity(child, child_key, child_attr, child_value, parent, parent_attr, parent_value):
    """P(child_attr = v1 | parent_attr = v2 across the join) vs P(child_attr = v1)."""
    parent_ids = parent.column("id")[parent.column(parent_attr) == parent_value]
    child_mask = np.isin(child.column(child_key), parent_ids)
    child_attr_values = child.column(child_attr)
    overall = (child_attr_values == child_value).mean()
    conditional = (child_attr_values[child_mask] == child_value).mean()
    return conditional, overall


class TestPlantedCorrelations:
    def test_retail_segment_correlates_with_price_band(self, tiny_databases):
        database = tiny_databases["retail"]
        sales = database.table("sales")
        customers = database.table("customers")
        products = database.table("products")
        segment = customers.column("segment_id")[sales.column("customer_id") - 1]
        price_band = products.column("price_band")[sales.column("product_id") - 1]
        premium = price_band[segment == 1]
        budget = price_band[segment == _max_segment(segment)]
        # Premium buyers sit in visibly higher price bands than budget buyers.
        assert premium.mean() > budget.mean() + 0.75

    def test_retail_customers_shop_in_their_region(self, tiny_databases):
        database = tiny_databases["retail"]
        sales = database.table("sales")
        customer_region = database.table("customers").column("region_id")[
            sales.column("customer_id") - 1
        ]
        store_region = database.table("stores").column("region_id")[
            sales.column("store_id") - 1
        ]
        assert (customer_region == store_region).mean() > 0.6

    def test_forum_topic_shapes_post_sentiment(self, tiny_databases):
        database = tiny_databases["forum"]
        threads = database.table("threads")
        posts = database.table("posts")
        forums = database.table("forums")
        topic = forums.column("topic_id")[threads.column("forum_id") - 1]
        post_topic = topic[posts.column("thread_id") - 1]
        sentiment = posts.column("sentiment_id")
        # The per-topic sentiment means must differ (independence would make
        # them equal up to sampling noise).
        means = [
            sentiment[post_topic == value].mean()
            for value in np.unique(post_topic)
            if (post_topic == value).sum() >= 30
        ]
        assert max(means) - min(means) > 0.5

    def test_forum_flagged_comments_attract_downvotes(self, tiny_databases):
        database = tiny_databases["forum"]
        comments = database.table("comments")
        votes = database.table("votes")
        flag = comments.column("flag_id")[votes.column("comment_id") - 1]
        vote_type = votes.column("vote_type_id")
        downvote_rate_flagged = (vote_type[flag >= 4] == 2).mean()
        downvote_rate_plain = (vote_type[flag <= 2] == 2).mean()
        assert downvote_rate_flagged > downvote_rate_plain + 0.2

    def test_retail_fact_fanout_is_skewed(self, tiny_databases):
        database = tiny_databases["retail"]
        counts = np.bincount(database.table("sales").column("customer_id"))
        top_decile = np.sort(counts)[-max(len(counts) // 10, 1):]
        assert top_decile.sum() > 0.3 * counts.sum()


def _max_segment(segment: np.ndarray) -> int:
    return int(segment.max())


class TestConfigs:
    def test_retail_config_validation(self):
        with pytest.raises(ValueError):
            RetailConfig(num_customers=0)
        with pytest.raises(ValueError):
            RetailConfig(scale=0)

    def test_retail_requires_a_store_per_region(self):
        with pytest.raises(ValueError, match="one per region"):
            RetailConfig(num_stores=4)

    def test_forum_config_validation(self):
        with pytest.raises(ValueError):
            ForumConfig(num_threads=0)
        with pytest.raises(ValueError):
            ForumConfig(scale=-1)

    def test_direct_generators_accept_none(self):
        assert generate_retail(RetailConfig(num_customers=50, scale=1.0)).table("sales").num_rows > 0
        assert generate_forum(ForumConfig(num_threads=30, num_users=40, scale=1.0)).table("posts").num_rows > 0

    def test_spec_objects_are_registered_objects(self):
        assert get_dataset("retail") is RETAIL_SPEC
        assert get_dataset("forum") is FORUM_SPEC
