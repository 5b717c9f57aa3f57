"""Tests for the bucketisation of the probe store."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bucketize import (
    bucket_boundaries,
    bucketize,
    greedy_boundaries,
    max_bucket_size_for_cache,
)
from repro.core.vector_store import VectorStore
from repro.exceptions import InvalidParameterError
from tests.conftest import make_factors


class TestBucketize:
    def test_buckets_cover_all_probes(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=10)
        assert sum(bucket.size for bucket in buckets) == probe_store.size
        assert buckets[0].start == 0
        assert buckets[-1].end == probe_store.size

    def test_buckets_are_contiguous(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=10)
        for left, right in zip(buckets[:-1], buckets[1:]):
            assert left.end == right.start

    def test_bucket_max_lengths_decreasing(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=10)
        maxima = [bucket.max_length for bucket in buckets]
        assert all(a >= b - 1e-12 for a, b in zip(maxima[:-1], maxima[1:]))

    def test_min_bucket_size_respected(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=25, max_bucket_size=None, cache_kib=None)
        # All buckets except possibly the last one hold at least 25 vectors.
        assert all(bucket.size >= 25 for bucket in buckets[:-1])

    def test_max_bucket_size_respected(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=5, max_bucket_size=40)
        assert all(bucket.size <= 40 for bucket in buckets)

    def test_length_ratio_controls_splits(self, probe_store):
        coarse = bucketize(probe_store, min_bucket_size=1, length_ratio=0.5, cache_kib=None)
        fine = bucketize(probe_store, min_bucket_size=1, length_ratio=0.99, cache_kib=None)
        assert len(fine) >= len(coarse)

    def test_cache_oblivious_single_length_rule(self):
        store = VectorStore(np.ones((100, 8)))
        buckets = bucketize(store, min_bucket_size=10, max_bucket_size=None, cache_kib=None)
        # Equal lengths never trigger the ratio rule: one bucket.
        assert len(buckets) == 1

    def test_cache_budget_creates_more_buckets(self):
        store = VectorStore(make_factors(600, rank=32, length_cov=0.2, seed=5))
        aware = bucketize(store, cache_kib=16)
        oblivious = bucketize(store, max_bucket_size=None, cache_kib=None)
        assert len(aware) > len(oblivious)

    def test_indices_are_sequential(self, probe_store):
        buckets = bucketize(probe_store)
        assert [bucket.index for bucket in buckets] == list(range(len(buckets)))

    def test_boundaries_helper(self, probe_store):
        buckets = bucketize(probe_store, min_bucket_size=10)
        bounds = bucket_boundaries(buckets)
        assert bounds[0] == 0
        assert bounds[-1] == probe_store.size
        assert np.all(np.diff(bounds) > 0)

    def test_rejects_bad_length_ratio(self, probe_store):
        with pytest.raises(InvalidParameterError):
            bucketize(probe_store, length_ratio=0.0)
        with pytest.raises(InvalidParameterError):
            bucketize(probe_store, length_ratio=1.5)

    def test_rejects_bad_min_size(self, probe_store):
        with pytest.raises(InvalidParameterError):
            bucketize(probe_store, min_bucket_size=0)

    def test_rejects_bad_max_size(self, probe_store):
        with pytest.raises(InvalidParameterError):
            bucketize(probe_store, max_bucket_size=0)

    def test_single_vector_store(self):
        store = VectorStore([[1.0, 2.0]])
        buckets = bucketize(store)
        assert len(buckets) == 1
        assert buckets[0].size == 1

    @settings(max_examples=25, deadline=None)
    @given(
        num_vectors=st.integers(1, 200),
        min_size=st.integers(1, 40),
        max_size=st.integers(1, 80),
        seed=st.integers(0, 100),
    )
    def test_property_partition_invariants(self, num_vectors, min_size, max_size, seed):
        store = VectorStore(make_factors(num_vectors, rank=6, seed=seed))
        buckets = bucketize(
            store, min_bucket_size=min_size, max_bucket_size=max_size, cache_kib=None
        )
        assert sum(bucket.size for bucket in buckets) == num_vectors
        assert all(bucket.size <= max_size for bucket in buckets)
        positions = np.concatenate([np.arange(b.start, b.end) for b in buckets])
        np.testing.assert_array_equal(positions, np.arange(num_vectors))


def reference_boundaries(lengths, rank, min_size, max_size, ratio, cache_kib):
    """The greedy scan as one step per position (the paper's Section 3.2 loop)."""
    if max_size is None and cache_kib is not None:
        max_size = max_bucket_size_for_cache(rank, cache_kib)
    if max_size is not None and max_size < min_size:
        min_size = max_size
    boundaries, start = [0], 0
    for position in range(1, len(lengths)):
        size = position - start
        too_large = max_size is not None and size >= max_size
        drop = lengths[position] < ratio * lengths[start]
        if too_large or (drop and size >= min_size):
            boundaries.append(position)
            start = position
    boundaries.append(len(lengths))
    return boundaries


def _lengths_cases():
    rng = np.random.default_rng(31)
    tail = np.sort(rng.lognormal(0.0, 1.0, 300))[::-1]
    return {
        "lognormal": np.sort(rng.lognormal(0.0, 1.5, 2000))[::-1],
        "all_equal": np.full(500, 0.7),
        "integer_ties": np.sort(rng.integers(1, 12, 800).astype(np.float64))[::-1],
        "zero_tail": np.concatenate([tail, np.zeros(120)]),
        "size_one": np.array([2.5]),
    }


class TestBoundaryScanEquivalence:
    @pytest.mark.parametrize("case", sorted(_lengths_cases()))
    @pytest.mark.parametrize(
        "min_size, max_size, ratio, cache_kib",
        [
            (30, None, 0.9, 256),  # the defaults
            (30, None, 0.9, None),  # cache-oblivious: no size cap
            (10, 40, 0.5, None),
            (25, 7, 0.9, None),  # max < min: the cap wins
            (1, None, 1.0, None),  # every strict drop cuts
            (5, 5, 0.8, None),
            (3, None, 0.99, 1),  # a tiny cache budget
        ],
    )
    def test_matches_sequential_scan(self, case, min_size, max_size, ratio, cache_kib):
        lengths = _lengths_cases()[case]
        expected = reference_boundaries(lengths, 50, min_size, max_size, ratio, cache_kib)
        actual = greedy_boundaries(
            lengths, 50, min_bucket_size=min_size, max_bucket_size=max_size,
            length_ratio=ratio, cache_kib=cache_kib,
        )
        assert actual == expected

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(1, 300),
        min_size=st.integers(1, 50),
        max_size=st.one_of(st.none(), st.integers(1, 80)),
        ratio=st.floats(0.05, 1.0),
        levels=st.integers(1, 40),
        seed=st.integers(0, 1000),
    )
    def test_property_matches_sequential_scan(self, num, min_size, max_size, ratio, levels, seed):
        rng = np.random.default_rng(seed)
        lengths = np.sort(rng.integers(0, levels, num) * rng.lognormal(0, 0.1))[::-1]
        expected = reference_boundaries(lengths, 8, min_size, max_size, ratio, None)
        actual = greedy_boundaries(
            lengths, 8, min_bucket_size=min_size, max_bucket_size=max_size,
            length_ratio=ratio, cache_kib=None,
        )
        assert actual == expected


class TestCacheSizing:
    def test_larger_cache_allows_larger_buckets(self):
        assert max_bucket_size_for_cache(50, 512) > max_bucket_size_for_cache(50, 64)

    def test_higher_rank_reduces_bucket_size(self):
        assert max_bucket_size_for_cache(200, 256) < max_bucket_size_for_cache(20, 256)

    def test_at_least_one(self):
        assert max_bucket_size_for_cache(10_000, 1) >= 1


class TestBucketViews:
    def test_lengths_view_sorted(self, probe_buckets):
        for bucket in probe_buckets:
            assert np.all(np.diff(bucket.lengths) <= 1e-12)

    def test_max_and_min_length(self, probe_buckets):
        for bucket in probe_buckets:
            assert bucket.max_length == pytest.approx(bucket.lengths[0])
            assert bucket.min_length == pytest.approx(bucket.lengths[-1])

    def test_vectors_reconstruction(self, probe_buckets, small_problem):
        _, probes = small_problem
        bucket = probe_buckets[0]
        reconstructed = bucket.vectors()
        np.testing.assert_allclose(reconstructed, probes[bucket.ids], atol=1e-12)

    def test_sorted_lists_lazy(self, probe_buckets):
        bucket = probe_buckets[0]
        assert not bucket.sorted_lists_built
        bucket.sorted_lists()
        assert bucket.sorted_lists_built

    def test_get_index_builds_once(self, probe_buckets):
        bucket = probe_buckets[0]
        calls = []

        def builder():
            calls.append(1)
            return object()

        first = bucket.get_index("custom", builder)
        second = bucket.get_index("custom", builder)
        assert first is second
        assert len(calls) == 1

    def test_drop_index_forces_rebuild(self, probe_buckets):
        bucket = probe_buckets[0]
        first = bucket.get_index("other", object)
        bucket.drop_index("other")
        second = bucket.get_index("other", object)
        assert first is not second

    def test_invalid_range_rejected(self, probe_store):
        from repro.core.bucket import Bucket

        with pytest.raises(ValueError):
            Bucket(probe_store, 5, 5, 0)
        with pytest.raises(ValueError):
            Bucket(probe_store, 0, probe_store.size + 1, 0)
