"""Unit tests of the Above-θ and Row-Top-k solvers against hand-built selectors."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import above_theta
from repro.core.above_theta import solve_above_theta
from repro.core.bucket import Bucket, BucketLayout
from repro.core.bucketize import bucketize
from repro.core.kernels import gather_matvec, use_kernel
from repro.core.lemp import Lemp
from repro.core.retrievers import IncrRetriever, LengthRetriever
from repro.core.selector import FixedSelector, PerBucketSelector, RetrieverSelector
from repro.core.stats import RunStats
from repro.core.thresholds import local_thresholds
from repro.core.top_k import solve_row_top_k
from repro.core.vector_store import PreparedQueries, VectorStore
from repro.datasets.openie import IE_SVD_PROBE_COV, IE_SVD_QUERY_COV
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count
from tests.conftest import brute_force_above, make_factors, pick_theta


def build_problem(num_queries=50, num_probes=200, rank=10, length_cov=1.0, seed=0):
    queries = make_factors(num_queries, rank=rank, length_cov=length_cov, seed=seed)
    probes = make_factors(num_probes, rank=rank, length_cov=length_cov, seed=seed + 1)
    store = VectorStore(probes)
    buckets = bucketize(store, min_bucket_size=15, max_bucket_size=50)
    return queries, probes, PreparedQueries(queries), buckets


class TestSolveAboveTheta:
    def test_matches_brute_force_with_length_selector(self):
        queries, probes, prepared, buckets = build_problem(seed=10)
        theta = pick_theta(queries, probes, 150)
        stats = RunStats()
        query_ids, probe_ids, scores = solve_above_theta(
            prepared, BucketLayout(buckets), theta, FixedSelector(LengthRetriever()), stats
        )
        assert set(zip(query_ids.tolist(), probe_ids.tolist())) == brute_force_above(
            queries, probes, theta
        )
        assert np.all(scores >= theta - 1e-9)

    def test_matches_brute_force_with_incr_selector(self):
        queries, probes, prepared, buckets = build_problem(seed=11)
        theta = pick_theta(queries, probes, 80)
        stats = RunStats()
        query_ids, probe_ids, _ = solve_above_theta(
            prepared, BucketLayout(buckets), theta, FixedSelector(IncrRetriever(), phi=3), stats
        )
        assert set(zip(query_ids.tolist(), probe_ids.tolist())) == brute_force_above(
            queries, probes, theta
        )

    def test_bucket_pruning_counted(self):
        queries, probes, prepared, buckets = build_problem(length_cov=1.5, seed=12)
        theta = pick_theta(queries, probes, 20)
        stats = RunStats()
        solve_above_theta(prepared, BucketLayout(buckets), theta,
                          FixedSelector(LengthRetriever()), stats)
        assert stats.buckets_pruned > 0
        assert stats.buckets_examined + stats.buckets_pruned == len(buckets) * prepared.size

    def test_candidates_at_least_results(self):
        queries, probes, prepared, buckets = build_problem(seed=13)
        theta = pick_theta(queries, probes, 60)
        stats = RunStats()
        query_ids, _, _ = solve_above_theta(
            prepared, BucketLayout(buckets), theta, FixedSelector(IncrRetriever()), stats
        )
        assert stats.candidates >= query_ids.size
        assert stats.inner_products == stats.candidates

    def test_empty_output_for_unreachable_threshold(self):
        queries, probes, prepared, buckets = build_problem(seed=14)
        theta = float((queries @ probes.T).max()) * 2 + 1.0
        stats = RunStats()
        query_ids, probe_ids, scores = solve_above_theta(
            prepared, BucketLayout(buckets), theta, FixedSelector(LengthRetriever()), stats
        )
        assert query_ids.size == probe_ids.size == scores.size == 0


class TestSolveRowTopK:
    def test_matches_brute_force(self):
        queries, probes, prepared, buckets = build_problem(seed=20)
        stats = RunStats()
        indices, scores = solve_row_top_k(prepared, buckets, 5, FixedSelector(IncrRetriever()), stats)
        product = queries @ probes.T
        expected = -np.sort(-product, axis=1)[:, :5]
        np.testing.assert_allclose(scores, expected, atol=1e-9)

    def test_indices_consistent_with_scores(self):
        queries, probes, prepared, buckets = build_problem(seed=21)
        stats = RunStats()
        indices, scores = solve_row_top_k(prepared, buckets, 3, FixedSelector(LengthRetriever()), stats)
        product = queries @ probes.T
        for query_id in range(queries.shape[0]):
            for slot in range(3):
                probe_id = indices[query_id, slot]
                assert probe_id >= 0
                assert scores[query_id, slot] == pytest.approx(product[query_id, probe_id], rel=1e-9)

    def test_no_duplicate_probes_per_row(self):
        queries, probes, prepared, buckets = build_problem(seed=22)
        stats = RunStats()
        indices, _ = solve_row_top_k(prepared, buckets, 8, FixedSelector(LengthRetriever()), stats)
        for row in indices:
            valid = row[row >= 0]
            assert len(set(valid.tolist())) == valid.size

    def test_bucket_pruning_happens_for_skewed_data(self):
        queries, probes, prepared, buckets = build_problem(length_cov=1.8, num_probes=400, seed=23)
        stats = RunStats()
        solve_row_top_k(prepared, buckets, 1, FixedSelector(LengthRetriever()), stats)
        assert stats.buckets_examined < len(buckets) * prepared.size

    def test_k_equal_to_probe_count(self):
        queries, probes, prepared, buckets = build_problem(num_probes=40, seed=24)
        stats = RunStats()
        indices, scores = solve_row_top_k(prepared, buckets, 40, FixedSelector(LengthRetriever()), stats)
        assert np.all(indices >= 0)
        product = queries @ probes.T
        np.testing.assert_allclose(scores, -np.sort(-product, axis=1), atol=1e-9)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Row arrays of the Above-θ solver's verification calls, in call order."""
    calls = []

    def counted(matrix, rows, query, groups=None):
        calls.append(np.array(rows))
        return gather_matvec(matrix, rows, query, groups)

    monkeypatch.setattr(above_theta, "gather_matvec", counted)
    return calls


def walk_keys(buckets, prepared, query_ids, probe_ids):
    """(bucket ordinal, query position, store row) of each result, from the store's layout."""
    store = buckets[0].store
    live = store.live_positions()
    row_of = np.full(int(store.ids[live].max()) + 1, -1)
    row_of[store.ids[live]] = live
    ordinal_of = np.full(store.capacity, -1)
    for ordinal, bucket in enumerate(buckets):
        ordinal_of[bucket.start:bucket.end] = ordinal
    position_of = np.empty(prepared.size, dtype=np.intp)
    position_of[prepared.ids] = np.arange(prepared.size)
    rows = row_of[probe_ids]
    return ordinal_of[rows], position_of[query_ids], rows


def assert_walk_order_and_bits(arrays, buckets, prepared, expected_pairs):
    """Oracle's pairs, emitted in walk order, each score with a single-query call's bits."""
    query_ids, probe_ids, scores = arrays
    assert set(zip(query_ids.tolist(), probe_ids.tolist())) == expected_pairs
    if query_ids.size == 0:
        return
    ordinals, positions, rows = walk_keys(buckets, prepared, query_ids, probe_ids)
    store = buckets[0].store
    assert ordinals.min() >= 0 and rows.min() >= 0
    walk = (ordinals * prepared.size + positions) * store.capacity + rows
    assert np.all(np.diff(walk) > 0)
    for position in np.unique(positions).tolist():
        mine = positions == position
        cosines = gather_matvec(store.directions, rows[mine], prepared.directions[position])
        expected = cosines * (prepared.norms[position] * store.lengths[rows[mine]])
        assert scores[mine].tobytes() == expected.tobytes()


def assert_chunked_calls(calls, cap):
    """Every call but the last verifies exactly ``cap`` rows: ⌈queued / cap⌉ calls."""
    sizes = [rows.size for rows in calls]
    assert len(sizes) == math.ceil(sum(sizes) / cap)
    assert all(size == cap for size in sizes[:-1])
    assert all(0 < size <= cap for size in sizes[-1:])


class TestAboveThetaWalkOrder:
    """One verification pass per call keeps the per-bucket walk's pairs, order and bits."""

    ROWS = (1, 3, 7, 300)
    #: Queue cap small enough that a call flushes several times.
    SMALL_CAP = 7

    @pytest.mark.parametrize("mutated", [False, True], ids=["fresh", "mutated"])
    @pytest.mark.parametrize("kernel", ["blocked", "einsum"])
    @pytest.mark.parametrize("spec", ["L", "LI", "I", "LC"])
    def test_engine_matches_oracle_in_walk_order(self, spec, kernel, mutated,
                                                 kernel_calls, monkeypatch):
        queries = make_factors(300, rank=12, length_cov=1.2, seed=61)
        probes = make_factors(1500, rank=12, length_cov=1.2, seed=62)
        theta = pick_theta(queries, probes, 3000)
        with use_kernel(kernel):
            lemp = Lemp(algorithm=spec, cache_kib=None).fit(probes)
            if mutated:
                extra = make_factors(32, rank=12, length_cov=1.2, seed=63)
                removed = np.arange(0, probes.shape[0], 37)
                lemp.partial_fit(extra).remove(removed)
                probes = np.delete(np.vstack((probes, extra)), removed, axis=0)
            for rows in self.ROWS:
                kernel_calls.clear()
                result = lemp.above_theta(queries[:rows], theta)
                arrays = (result.query_ids, result.probe_ids, result.scores)
                assert len(kernel_calls) <= 1
                assert_walk_order_and_bits(arrays, lemp.buckets, PreparedQueries(queries[:rows]),
                                           brute_force_above(queries[:rows], probes, theta))
                with monkeypatch.context() as patch:
                    patch.setattr(above_theta, "VERIFY_QUEUE_ROWS", self.SMALL_CAP)
                    kernel_calls.clear()
                    capped = lemp.above_theta(queries[:rows], theta)
                assert_chunked_calls(kernel_calls, self.SMALL_CAP)
                for name in ("query_ids", "probe_ids", "scores"):
                    assert getattr(capped, name).tobytes() == getattr(result, name).tobytes()
        assert lemp.stats.results > 0

    @pytest.mark.parametrize("cap", [None, 5])
    @pytest.mark.parametrize("kernel", ["blocked", "einsum"])
    @pytest.mark.parametrize("interleaved", [False, True], ids=["switch", "interleaved"])
    def test_bucket_mixing_length_and_coordinate_pairs(self, interleaved, kernel, cap,
                                                       kernel_calls, monkeypatch):
        """A switch point inside a bucket's θ_b range sends its queries down both routes.

        Queries are sorted by norm, so a switch point sends a prefix of a
        bucket's queries to LENGTH; the interleaved selector alternates
        routes instead, so the bucket's LENGTH and coordinate pairs must be
        merged into query-position order.
        """
        queries, probes, prepared, buckets = build_problem(num_queries=300, num_probes=400,
                                                           seed=64)
        theta = pick_theta(queries, probes, 1500)
        switches, mixed = {}, 0
        for bucket in buckets:
            theta_b = local_thresholds(theta, prepared.norms, bucket.max_length)
            reached = theta_b[theta_b <= 1.0]
            switches[bucket.index] = float(np.median(reached)) if reached.size else 0.0
            mixed += np.count_nonzero(reached < switches[bucket.index]) >= 2 and np.count_nonzero(
                reached >= switches[bucket.index]) >= 2
        assert mixed >= 2
        selector = PerBucketSelector(LengthRetriever(), IncrRetriever(), switches, {})
        if interleaved:
            selector = InterleavedSelector()
        if cap is not None:
            monkeypatch.setattr(above_theta, "VERIFY_QUEUE_ROWS", cap)
        with use_kernel(kernel):
            arrays = solve_above_theta(prepared, BucketLayout(buckets), theta, selector,
                                       RunStats())
            assert_walk_order_and_bits(arrays, buckets, prepared,
                                       brute_force_above(queries, probes, theta))
        if cap is None:
            assert len(kernel_calls) == 1
        else:
            assert len(kernel_calls) > 2
            assert_chunked_calls(kernel_calls, cap)


class InterleavedSelector(RetrieverSelector):
    """Alternate LENGTH and INCR between neighbouring queries of a bucket's block."""

    def select(self, bucket, theta_b):
        return IncrRetriever(), 3

    def split(self, bucket, theta_bs):
        to_length = np.arange(len(theta_bs)) % 2 == 0
        return to_length, [self.select(bucket, 0.0)] * int(np.count_nonzero(~to_length))


def test_ie_svd_call_verifies_once(kernel_calls, monkeypatch):
    """A 1000-row ie-svd-shaped call makes ⌈queued rows / cap⌉ = 1 kernel call.

    Verification used to make one call per bucket (or per query block).
    """
    rng = np.random.default_rng(3)
    queries = synthetic_factors(1000, 50, length_cov=IE_SVD_QUERY_COV, seed=rng)
    probes = synthetic_factors(20000, 50, length_cov=IE_SVD_PROBE_COV, seed=rng)
    theta = theta_for_result_count(queries, probes, 10 * queries.shape[0], block_size=64)
    lemp = Lemp(algorithm="LI").fit(probes)
    expected = lemp.above_theta(queries, theta)
    kernel_calls.clear()
    result = lemp.above_theta(queries, theta)
    queued = sum(rows.size for rows in kernel_calls)
    assert len(kernel_calls) == math.ceil(queued / above_theta.VERIFY_QUEUE_ROWS) == 1
    # The one call spans the survivors of many buckets.
    starts = np.array([bucket.start for bucket in lemp.buckets])
    touched = np.unique(np.searchsorted(starts, kernel_calls[0], side="right"))
    assert touched.size > 10
    assert result.scores.tobytes() == expected.scores.tobytes()

    cap = queued // 3 + 1
    monkeypatch.setattr(above_theta, "VERIFY_QUEUE_ROWS", cap)
    kernel_calls.clear()
    capped = lemp.above_theta(queries, theta)
    assert len(kernel_calls) == math.ceil(queued / cap) == 3
    assert_chunked_calls(kernel_calls, cap)
    assert capped.probe_ids.tobytes() == expected.probe_ids.tobytes()
    assert capped.scores.tobytes() == expected.scores.tobytes()


def test_single_row_call_stops_at_its_last_live_bucket(monkeypatch):
    """A single-row ie-svd-shaped call reads no bucket past the last one it reaches.

    The walk finds the query's live buckets with one search, so neither the
    selector nor the screen buffer sees a dead bucket, and no dead bucket's
    length is read.
    """
    rng = np.random.default_rng(5)
    queries = synthetic_factors(200, 50, length_cov=IE_SVD_QUERY_COV, seed=rng)
    probes = synthetic_factors(20000, 50, length_cov=IE_SVD_PROBE_COV, seed=rng)
    theta = theta_for_result_count(queries, probes, 10 * queries.shape[0], block_size=64)
    lemp = Lemp(algorithm="LI").fit(probes)
    lemp.above_theta(queries, theta)
    switched, filled, read = [], [], []
    original_switch, original_fill = PerBucketSelector.switch, Bucket.fill_screen
    original_length = Bucket.max_length

    def max_length(bucket):
        read.append(bucket.index)
        return original_length.fget(bucket)

    def switch(selector, bucket):
        switched.append(bucket.index)
        return original_switch(selector, bucket)

    def fill_screen(bucket):
        filled.append(bucket.index)
        return original_fill(bucket)

    for row in (0, 57, 199):
        prepared = PreparedQueries(queries[row:row + 1])
        selector = lemp._build_selector(prepared, np.full(1, theta), "above_theta", theta)
        live = int(np.count_nonzero(
            [local_thresholds(theta, prepared.norms, bucket.max_length)[0] <= 1.0
             for bucket in lemp.buckets]))
        assert 0 < live < lemp.num_buckets / 4
        layout = lemp.layout()
        switched.clear()
        filled.clear()
        read.clear()
        stats = RunStats()
        with monkeypatch.context() as patch:
            patch.setattr(PerBucketSelector, "switch", switch)
            patch.setattr(Bucket, "fill_screen", fill_screen)
            patch.setattr(Bucket, "max_length", property(max_length))
            solve_above_theta(prepared, layout, theta, selector, stats)
        assert sorted(switched) == list(range(live))
        assert filled and max(filled) < live
        assert read and max(read) < live
        assert stats.buckets_examined == live
        assert stats.buckets_pruned == lemp.num_buckets - live
