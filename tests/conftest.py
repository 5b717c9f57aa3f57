"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vector_store import PreparedQueries, VectorStore
from repro.core.bucketize import bucketize


def make_factors(num_vectors, rank=16, length_cov=0.8, seed=0, sparsity=0.0, nonnegative=False):
    """Small synthetic factor matrix with a log-normal length distribution."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((num_vectors, rank))
    if nonnegative:
        directions = np.abs(directions)
    if sparsity > 0.0:
        mask = rng.random((num_vectors, rank)) < sparsity
        forced = rng.integers(rank, size=num_vectors)
        mask[np.arange(num_vectors), forced] = False
        directions = np.where(mask, 0.0, directions)
    norms = np.linalg.norm(directions, axis=1)
    directions = directions / np.where(norms > 0, norms, 1.0)[:, None]
    sigma = np.sqrt(np.log1p(length_cov**2))
    lengths = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=num_vectors)
    return directions * lengths[:, None]


@pytest.fixture
def small_problem():
    """A small (queries, probes) pair with skewed lengths."""
    queries = make_factors(120, rank=12, length_cov=1.2, seed=1)
    probes = make_factors(400, rank=12, length_cov=1.2, seed=2)
    return queries, probes


@pytest.fixture
def dense_problem():
    """A low-skew (queries, probes) pair, the hard case for pruning."""
    queries = make_factors(80, rank=10, length_cov=0.3, seed=3)
    probes = make_factors(250, rank=10, length_cov=0.3, seed=4)
    return queries, probes


@pytest.fixture
def probe_store(small_problem):
    """A VectorStore over the probe matrix of ``small_problem``."""
    _, probes = small_problem
    return VectorStore(probes)


@pytest.fixture
def probe_buckets(probe_store):
    """Buckets over ``probe_store`` with small bucket sizes for variety."""
    return bucketize(probe_store, min_bucket_size=10, max_bucket_size=60, cache_kib=None)


@pytest.fixture
def prepared_queries(small_problem):
    """PreparedQueries over the query matrix of ``small_problem``."""
    queries, _ = small_problem
    return PreparedQueries(queries)


def pick_theta(queries, probes, count):
    """Threshold retrieving roughly ``count`` entries, robust to float ties.

    The value is placed midway between the ``count``-th largest product entry
    and the next smaller distinct value, so tests never depend on last-bit
    rounding of entries lying exactly on the threshold.
    """
    product = (np.asarray(queries) @ np.asarray(probes).T).ravel()
    count = min(count, product.size)
    boundary = np.partition(product, product.size - count)[product.size - count]
    smaller = product[product < boundary]
    if smaller.size == 0:
        return float(boundary - abs(boundary) * 1e-6 - 1e-12)
    return float((boundary + smaller.max()) / 2.0)


def brute_force_above(queries, probes, theta):
    """Reference Above-θ solution as a set of (i, j) pairs."""
    product = np.asarray(queries) @ np.asarray(probes).T
    rows, cols = np.nonzero(product >= theta)
    return set(zip(rows.tolist(), cols.tolist()))


def brute_force_top_k(queries, probes, k):
    """Reference Row-Top-k solution as a list of score-sets per query."""
    product = np.asarray(queries) @ np.asarray(probes).T
    out = []
    for row in product:
        order = np.argsort(-row, kind="stable")[:k]
        out.append(set(order.tolist()))
    return out, product


def answer_arrays(result):
    """A result's arrays, Above-θ in score order: a call emits its pairs bucket
    by bucket, so a chunked call's order follows its chunks."""
    if hasattr(result, "indices"):
        return result.indices, result.scores
    ordered = result.sorted_by_score()
    return ordered.query_ids, ordered.probe_ids, ordered.scores


def assert_same_answers(expected, observed, context=""):
    """Byte-identical answers, Above-θ compared in score order."""
    pairs = zip(answer_arrays(expected), answer_arrays(observed), strict=True)
    for index, (left, right) in enumerate(pairs):
        assert left.tobytes() == right.tobytes(), f"{context} array {index}"


def assert_layout_invariants(lemp):
    """The bucket layout invariants every ``partial_fit`` / ``remove`` keeps.

    Buckets occupy disjoint, ascending slices of the store and are numbered
    in that order; none is empty or larger than its slack bound; the live
    rows, read bucket by bucket, have non-increasing lengths and are exactly
    the store's ``size`` live rows (every other buffer row is a gap, id -1).
    """
    from repro.core.bucketize import size_bound, slack_bound

    store, buckets = lemp.store, lemp.buckets
    loose = slack_bound(size_bound(store.rank, lemp.max_bucket_size, lemp.cache_kib))
    previous_end = 0
    for ordinal, bucket in enumerate(buckets):
        assert bucket.index == ordinal
        assert bucket.start >= previous_end
        assert bucket.size >= 1
        assert loose is None or bucket.size <= loose
        previous_end = bucket.end
    assert previous_end <= store.capacity
    sizes = [bucket.size for bucket in buckets]
    assert sum(sizes) == store.size
    if buckets:
        lengths = np.concatenate([bucket.lengths for bucket in buckets])
        assert np.all(np.diff(lengths) <= 0.0)
        ids = np.concatenate([bucket.ids for bucket in buckets])
        assert np.array_equal(np.sort(ids), np.arange(store.size))
    assert int(np.count_nonzero(store.ids >= 0)) == store.size
