"""Tests for algorithm selection and the sample-based tuner."""

from __future__ import annotations

import numpy as np

from repro.core.retrievers import CoordRetriever, IncrRetriever, LengthRetriever
from repro.core.selector import DEFAULT_PHI, FixedSelector, PerBucketSelector
from repro.core.tuner import TuningResult, tune_mixed, tune_phi
from repro.core.vector_store import PreparedQueries
from tests.conftest import make_factors


class TestFixedSelector:
    def test_returns_retriever_and_default_phi(self, probe_buckets):
        retriever = LengthRetriever()
        selector = FixedSelector(retriever, phi=4)
        chosen, phi = selector.select(probe_buckets[0], 0.5)
        assert chosen is retriever
        assert phi == 4

    def test_per_bucket_phi_override(self, probe_buckets):
        selector = FixedSelector(CoordRetriever(), phi=2, per_bucket_phi={probe_buckets[0].index: 5})
        _, phi_first = selector.select(probe_buckets[0], 0.5)
        _, phi_other = selector.select(probe_buckets[-1], 0.5)
        assert phi_first == 5
        assert phi_other == 2


class TestPerBucketSelector:
    def make_selector(self, bucket_index, switch):
        return PerBucketSelector(
            LengthRetriever(),
            IncrRetriever(),
            switch_thresholds={bucket_index: switch},
            per_bucket_phi={bucket_index: 3},
        )

    def test_low_threshold_uses_length(self, probe_buckets):
        bucket = probe_buckets[0]
        selector = self.make_selector(bucket.index, switch=0.5)
        retriever, _ = selector.select(bucket, 0.2)
        assert isinstance(retriever, LengthRetriever)

    def test_high_threshold_uses_coordinate(self, probe_buckets):
        bucket = probe_buckets[0]
        selector = self.make_selector(bucket.index, switch=0.5)
        retriever, _ = selector.select(bucket, 0.8)
        assert isinstance(retriever, IncrRetriever)

    def test_unknown_bucket_uses_defaults(self, probe_buckets):
        selector = PerBucketSelector(
            LengthRetriever(), IncrRetriever(), switch_thresholds={}, per_bucket_phi={},
            default_threshold=1.0, default_phi=DEFAULT_PHI,
        )
        retriever, phi = selector.select(probe_buckets[0], 0.9)
        assert isinstance(retriever, LengthRetriever)
        assert phi == DEFAULT_PHI

    def test_untuned_bucket_follows_nearest_longer_tuned_bucket(self, probe_buckets):
        # Bucket indices grow as the maximum length falls.
        first, second, third, last = (probe_buckets[0], probe_buckets[1], probe_buckets[2],
                                      probe_buckets[-1])
        assert last.index > third.index
        selector = PerBucketSelector(
            LengthRetriever(), IncrRetriever(),
            switch_thresholds={first.index: 1.01, third.index: 0.0}, per_bucket_phi={},
        )
        assert selector.switch(second) == 1.01
        assert selector.switch(last) == 0.0
        assert isinstance(selector.select(second, 0.99)[0], LengthRetriever)
        assert isinstance(selector.select(last, 0.3)[0], IncrRetriever)
        to_length, routes = selector.split(second, np.array([0.3, 0.99]))
        assert to_length.all() and routes == []

    def test_default_applies_before_the_first_tuned_bucket(self, probe_buckets):
        selector = PerBucketSelector(
            LengthRetriever(), IncrRetriever(),
            switch_thresholds={probe_buckets[1].index: 1.01}, per_bucket_phi={},
            default_threshold=0.0,
        )
        assert selector.switch(probe_buckets[0]) == 0.0
        assert isinstance(selector.select(probe_buckets[0], 0.5)[0], IncrRetriever)

    def test_switch_zero_always_coordinate(self, probe_buckets):
        bucket = probe_buckets[0]
        selector = self.make_selector(bucket.index, switch=0.0)
        retriever, _ = selector.select(bucket, 0.0)
        assert isinstance(retriever, IncrRetriever)


class TestTuner:
    def setup_method(self):
        self.queries = PreparedQueries(make_factors(60, rank=10, length_cov=1.0, seed=11))
        probes = make_factors(300, rank=10, length_cov=1.0, seed=12)
        from repro.core.bucketize import bucketize
        from repro.core.vector_store import VectorStore

        self.buckets = bucketize(VectorStore(probes), min_bucket_size=20, max_bucket_size=80)

    def test_tune_phi_returns_value_per_visited_bucket(self):
        thetas = np.full(self.queries.size, 0.3)
        result = tune_phi(self.buckets, self.queries, thetas, CoordRetriever(), sample_size=10, seed=0)
        assert isinstance(result, TuningResult)
        for phi in result.per_bucket_phi.values():
            assert 1 <= phi <= 5

    def test_tune_mixed_returns_thresholds_in_range(self):
        thetas = np.full(self.queries.size, 0.3)
        result = tune_mixed(
            self.buckets, self.queries, thetas, LengthRetriever(), IncrRetriever(),
            sample_size=10, seed=0,
        )
        for threshold in result.switch_thresholds.values():
            assert 0.0 <= threshold <= 1.01
        assert result.seconds >= 0.0

    def test_tuner_skips_pruned_buckets(self):
        # A huge theta prunes every bucket for every sampled query: no entries.
        thetas = np.full(self.queries.size, 1e9)
        result = tune_mixed(
            self.buckets, self.queries, thetas, LengthRetriever(), IncrRetriever(),
            sample_size=10, seed=0,
        )
        assert result.switch_thresholds == {}
        assert result.per_bucket_phi == {}

    def test_tuner_handles_empty_query_matrix(self):
        empty = PreparedQueries(np.empty((0, 10)))
        result = tune_mixed(
            self.buckets, empty, np.empty(0), LengthRetriever(), IncrRetriever(), seed=0
        )
        assert result.per_bucket_phi == {}

    def test_scalar_theta_broadcast(self):
        result = tune_phi(self.buckets, self.queries, 0.3, CoordRetriever(), sample_size=5, seed=1)
        assert isinstance(result.per_bucket_phi, dict)

    def test_phi_grid_respected(self):
        thetas = np.full(self.queries.size, 0.3)
        result = tune_phi(
            self.buckets, self.queries, thetas, CoordRetriever(), phi_grid=(2, 3), sample_size=5, seed=2
        )
        assert set(result.per_bucket_phi.values()) <= {2, 3}
