"""Tests for the bucket retrieval algorithms (LENGTH, COORD, INCR, TA, Tree, L2AP, BLSH).

The central invariant for every exact retriever is *no false negatives*: the
candidate set must contain every probe of the bucket whose inner product with
the query reaches the threshold.  BLSH is allowed a small false-negative rate.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Lemp
from repro.core.bucketize import bucketize
from repro.core.retrievers import (
    BlshBucketRetriever,
    CoordRetriever,
    IncrRetriever,
    L2APBucketRetriever,
    LengthRetriever,
    TABucketRetriever,
    TreeBucketRetriever,
)
from repro.core.retrievers.coord import select_focus_coordinates
from repro.core.thresholds import local_threshold
from repro.core.vector_store import VectorStore
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count
from tests.conftest import make_factors, pick_theta

EXACT_RETRIEVERS = [
    LengthRetriever(),
    CoordRetriever(),
    IncrRetriever(),
    TABucketRetriever(),
    TreeBucketRetriever(),
    L2APBucketRetriever(),
]


def single_bucket(probes):
    store = VectorStore(probes)
    return bucketize(store, min_bucket_size=store.size, max_bucket_size=None, cache_kib=None)[0]


def make_query(rank, seed, norm=1.0):
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(rank)
    direction /= np.linalg.norm(direction)
    return direction, norm


def qualifying_lids(bucket, query_direction, query_norm, theta):
    scores = (bucket.directions @ query_direction) * bucket.lengths * query_norm
    return set(np.nonzero(scores >= theta)[0].tolist())


class TestNoFalseNegatives:
    @pytest.mark.parametrize("retriever", EXACT_RETRIEVERS, ids=lambda r: r.name)
    @pytest.mark.parametrize("theta_fraction", [0.3, 0.6, 0.9])
    def test_candidates_superset_of_results(self, retriever, theta_fraction):
        probes = make_factors(150, rank=14, length_cov=0.9, seed=21)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(14, seed=22, norm=1.3)
        scores = (bucket.directions @ query_direction) * bucket.lengths * query_norm
        theta = float(scores.max() * theta_fraction)
        if theta <= 0:
            pytest.skip("degenerate threshold")
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        if theta_b > 1.0:
            pytest.skip("bucket would be pruned")
        candidates = retriever.retrieve(bucket, query_direction, query_norm, theta, theta_b, phi=3)
        assert qualifying_lids(bucket, query_direction, query_norm, theta) <= set(candidates.tolist())

    @pytest.mark.parametrize("retriever", EXACT_RETRIEVERS, ids=lambda r: r.name)
    def test_sparse_nonnegative_data(self, retriever):
        probes = make_factors(120, rank=12, length_cov=1.5, seed=30, sparsity=0.6, nonnegative=True)
        bucket = single_bucket(probes)
        rng = np.random.default_rng(31)
        direction = np.abs(rng.standard_normal(12))
        direction /= np.linalg.norm(direction)
        query_norm = 2.0
        scores = (bucket.directions @ direction) * bucket.lengths * query_norm
        theta = float(np.partition(scores, -5)[-5])
        if theta <= 0:
            pytest.skip("degenerate threshold")
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        if theta_b > 1.0:
            pytest.skip("bucket would be pruned")
        candidates = retriever.retrieve(bucket, direction, query_norm, theta, theta_b, phi=4)
        assert qualifying_lids(bucket, direction, query_norm, theta) <= set(candidates.tolist())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), phi=st.integers(1, 6), fraction=st.floats(0.2, 0.95))
    def test_property_coord_and_incr_exact(self, seed, phi, fraction):
        probes = make_factors(80, rank=10, length_cov=1.0, seed=seed)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(10, seed=seed + 999, norm=1.0)
        scores = (bucket.directions @ query_direction) * bucket.lengths
        positive = scores[scores > 0]
        if positive.size == 0:
            return
        theta = float(positive.max() * fraction)
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        if theta_b > 1.0:
            return
        expected = qualifying_lids(bucket, query_direction, query_norm, theta)
        for retriever in (CoordRetriever(), IncrRetriever()):
            candidates = retriever.retrieve(bucket, query_direction, query_norm, theta, theta_b, phi)
            assert expected <= set(candidates.tolist())


class TestLengthRetriever:
    def test_prefix_matches_length_rule(self):
        probes = make_factors(100, rank=8, length_cov=1.2, seed=40)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(8, seed=41, norm=0.8)
        theta = 0.5
        candidates = LengthRetriever().retrieve(bucket, query_direction, query_norm, theta, 0.5, 1)
        expected = np.nonzero(bucket.lengths >= theta / query_norm)[0]
        np.testing.assert_array_equal(np.sort(candidates), expected)

    def test_candidates_form_prefix(self):
        probes = make_factors(100, rank=8, length_cov=1.2, seed=42)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(8, seed=43)
        candidates = LengthRetriever().retrieve(bucket, query_direction, query_norm, 0.7, 0.7, 1)
        np.testing.assert_array_equal(candidates, np.arange(candidates.size))

    def test_nonpositive_theta_returns_all(self):
        probes = make_factors(50, rank=6, seed=44)
        bucket = single_bucket(probes)
        query_direction, _ = make_query(6, seed=45)
        candidates = LengthRetriever().retrieve(bucket, query_direction, 1.0, -1.0, -1.0, 1)
        assert candidates.size == bucket.size

    def test_zero_query_norm_returns_none(self):
        probes = make_factors(50, rank=6, seed=46)
        bucket = single_bucket(probes)
        query_direction, _ = make_query(6, seed=47)
        candidates = LengthRetriever().retrieve(bucket, query_direction, 0.0, 0.5, np.inf, 1)
        assert candidates.size == 0

    def test_vectorised_cutoffs_match_retrieve(self):
        probes = make_factors(100, rank=8, length_cov=1.2, seed=48)
        bucket = single_bucket(probes)
        query_direction, _ = make_query(8, seed=49)
        # Thresholds landing exactly on stored lengths, non-positive and
        # infinite thresholds, and zero query norms.
        thetas = np.concatenate([bucket.lengths[::7] * 0.5, [0.0, -1.0, -np.inf, np.inf, 0.3]])
        for query_norm in (0.5, 0.0):
            cutoffs = LengthRetriever.cutoffs(bucket, thetas, np.full(thetas.size, query_norm))
            assert cutoffs.tolist() == [
                LengthRetriever().retrieve(bucket, query_direction, query_norm, theta, 0.5, 1).size
                for theta in thetas]

    def test_paper_example(self):
        # Section 4.1: bucket of Fig. 4a, q = (1,1,1,1), θ = 3.8 → C = {1,2,3} (1-based).
        directions = np.array(
            [
                [0.58, 0.50, 0.40, 0.50],
                [0.98, 0.0, 0.0, 0.20],
                [0.53, 0.0, 0.0, 0.85],
                [0.35, 0.93, 0.0, 0.10],
                [0.58, 0.50, 0.40, 0.50],
                [0.30, -0.40, 0.81, -0.30],
            ]
        )
        lengths = np.array([2.0, 1.9, 1.9, 1.8, 1.8, 1.8])
        probes = directions * lengths[:, None]
        bucket = single_bucket(probes)
        query = np.ones(4)
        query_norm = float(np.linalg.norm(query))
        candidates = LengthRetriever().retrieve(
            bucket, query / query_norm, query_norm, 3.8, 3.8 / (query_norm * 2.0), 1
        )
        assert set(candidates.tolist()) == {0, 1, 2}


class TestFocusSelection:
    def test_returns_requested_count(self):
        direction = np.array([0.1, -0.9, 0.3, 0.0, 0.2])
        assert select_focus_coordinates(direction, 2).tolist() == [1, 2]

    def test_caps_at_rank(self):
        direction = np.array([0.5, 0.5])
        assert len(select_focus_coordinates(direction, 10)) == 2

    def test_minimum_one(self):
        direction = np.array([0.5, 0.1])
        assert len(select_focus_coordinates(direction, 0)) == 1


class TestIncrVsCoord:
    def test_incr_prunes_at_least_as_much(self):
        probes = make_factors(200, rank=12, length_cov=0.6, seed=50)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(12, seed=51)
        scores = (bucket.directions @ query_direction) * bucket.lengths
        theta = float(np.partition(scores, -10)[-10])
        if theta <= 0:
            pytest.skip("degenerate threshold")
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        coord = CoordRetriever().retrieve(bucket, query_direction, query_norm, theta, theta_b, 3)
        incr = IncrRetriever().retrieve(bucket, query_direction, query_norm, theta, theta_b, 3)
        assert set(incr.tolist()) <= set(coord.tolist())

    def test_paper_running_example(self):
        # Fig. 4: θ = 0.9, q̄ = (0.70, 0.3, 0.4, 0.51), ‖q‖ = 0.5, F = {1, 4}.
        # COORD keeps {1, 4, 5}; INCR keeps only {1} (1-based ids).
        directions = np.array(
            [
                [0.58, 0.50, 0.40, 0.50],
                [0.98, 0.0, 0.0, 0.20],
                [0.53, 0.0, 0.0, 0.85],
                [0.35, 0.93, 0.0, 0.10],
                [0.58, 0.50, 0.40, 0.50],
                [0.30, -0.40, 0.81, -0.30],
            ]
        )
        lengths = np.array([2.0, 1.9, 1.9, 1.8, 1.8, 1.8])
        probes = directions * lengths[:, None]
        bucket = single_bucket(probes)
        query_direction = np.array([0.70, 0.3, 0.4, 0.51])
        query_direction = query_direction / np.linalg.norm(query_direction)
        query_norm = 0.5
        theta = 0.9
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        # The paper's example directions are only approximately unit vectors,
        # so the reconstructed local threshold is close to (not exactly) 0.9.
        assert theta_b == pytest.approx(0.9, abs=5e-3)

        # The bucket store re-sorts by length; map original row 0 (lid 1 in the
        # paper) through bucket.ids.
        coord = CoordRetriever().retrieve(bucket, query_direction, query_norm, theta, theta_b, 2)
        incr = IncrRetriever().retrieve(bucket, query_direction, query_norm, theta, theta_b, 2)
        coord_original = set(bucket.ids[coord].tolist())
        incr_original = set(bucket.ids[incr].tolist())
        assert 0 in incr_original
        assert incr_original <= coord_original
        assert len(incr_original) < len(coord_original)

    def test_incr_phi_equals_rank_is_exact_filter(self):
        probes = make_factors(100, rank=8, length_cov=0.8, seed=52)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(8, seed=53)
        scores = (bucket.directions @ query_direction) * bucket.lengths
        theta = float(np.partition(scores, -5)[-5])
        if theta <= 0:
            pytest.skip("degenerate threshold")
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        candidates = IncrRetriever().retrieve(bucket, query_direction, query_norm, theta, theta_b, 8)
        expected = qualifying_lids(bucket, query_direction, query_norm, theta)
        # With all coordinates in focus the partial product is the full cosine,
        # so the candidate set equals the exact answer.
        assert set(candidates.tolist()) == expected


class TestTaBucketRetriever:
    def test_nonpositive_threshold_returns_all(self):
        probes = make_factors(60, rank=6, seed=60)
        bucket = single_bucket(probes)
        query_direction, _ = make_query(6, seed=61)
        candidates = TABucketRetriever().retrieve(bucket, query_direction, 1.0, -0.5, -0.5, 1)
        assert candidates.size == bucket.size

    def test_zero_query_direction(self):
        probes = make_factors(60, rank=6, seed=62)
        bucket = single_bucket(probes)
        candidates = TABucketRetriever().retrieve(bucket, np.zeros(6), 1.0, 0.5, 0.5, 1)
        assert candidates.size == 0

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            TABucketRetriever(block_size=0)

    def test_high_threshold_prunes(self):
        probes = make_factors(200, rank=10, length_cov=0.3, seed=63)
        bucket = single_bucket(probes)
        query_direction, _ = make_query(10, seed=64)
        candidates = TABucketRetriever().retrieve(bucket, query_direction, 1.0, 0.99, 0.99, 1)
        assert candidates.size < bucket.size


class TestL2ApBucketRetriever:
    def test_index_reuse_across_queries(self):
        probes = make_factors(90, rank=8, length_cov=0.8, seed=70)
        bucket = single_bucket(probes)
        retriever = L2APBucketRetriever()
        first_direction, _ = make_query(8, seed=71)
        retriever.retrieve(bucket, first_direction, 1.5, 0.4, 0.3, 1)
        assert bucket.get_index("l2ap", lambda: None) is not None

    def test_without_index_reduction_everything_indexed(self):
        probes = make_factors(90, rank=8, length_cov=0.8, seed=72)
        bucket = single_bucket(probes)
        retriever = L2APBucketRetriever(use_index_reduction=False)
        direction, _ = make_query(8, seed=73)
        retriever.retrieve(bucket, direction, 1.0, 0.5, 0.5, 1)
        index = bucket.get_index("l2ap", lambda: None)
        assert index.base_threshold == 0.0


class TestBlshBucketRetriever:
    def test_subset_of_length_candidates(self):
        probes = make_factors(150, rank=10, length_cov=0.9, seed=80)
        bucket = single_bucket(probes)
        query_direction, query_norm = make_query(10, seed=81)
        theta = float(np.max((bucket.directions @ query_direction) * bucket.lengths) * 0.7)
        theta_b = local_threshold(theta, query_norm, bucket.max_length)
        length_candidates = LengthRetriever().retrieve(
            bucket, query_direction, query_norm, theta, theta_b, 1
        )
        blsh_candidates = BlshBucketRetriever(seed=3).retrieve(
            bucket, query_direction, query_norm, theta, theta_b, 1
        )
        assert set(blsh_candidates.tolist()) <= set(length_candidates.tolist())

    def test_low_false_negative_rate(self):
        rng = np.random.default_rng(82)
        probes = make_factors(300, rank=12, length_cov=0.8, seed=83)
        bucket = single_bucket(probes)
        retriever = BlshBucketRetriever(seed=4)
        missed = 0
        total = 0
        for seed in range(20):
            direction = rng.standard_normal(12)
            direction /= np.linalg.norm(direction)
            scores = (bucket.directions @ direction) * bucket.lengths
            theta = float(np.partition(scores, -10)[-10])
            if theta <= 0:
                continue
            theta_b = local_threshold(theta, 1.0, bucket.max_length)
            if theta_b > 1.0:
                continue
            candidates = set(
                retriever.retrieve(bucket, direction, 1.0, theta, theta_b, 1).tolist()
            )
            expected = qualifying_lids(bucket, direction, 1.0, theta)
            missed += len(expected - candidates)
            total += len(expected)
        assert total > 0
        assert missed / total <= 0.10


#: Absolute tolerance for the LEMP-BLSH recall regression pin.  The committed
#: baseline was measured on the earlier ratcheting implementation, whose
#: ratcheted-down base made the filter slightly *more* conservative; the
#: order-free per-(query, bucket) base may prune marginally more, but must
#: stay within this budget of the old recall.
BLSH_RECALL_TOLERANCE = 0.01


class TestBlshOrderIndependence:
    """LEMP-BLSH's order-free minimum-match base, end to end."""

    def test_blsh_independent_engines_agree(self):
        """Two fresh retrievers (fit + probe) return identical BLSH results."""
        queries = make_factors(60, rank=10, length_cov=1.0, seed=21)
        probes = make_factors(240, rank=10, length_cov=1.0, seed=22)
        theta = pick_theta(queries, probes, 120)
        first = Lemp(algorithm="BLSH", seed=0).fit(probes)
        second = Lemp(algorithm="BLSH", seed=0).fit(probes)
        expected = first.above_theta(queries, theta)
        observed = second.above_theta(queries, theta)
        for left, right in ((expected.query_ids, observed.query_ids),
                            (expected.probe_ids, observed.probe_ids),
                            (expected.scores, observed.scores)):
            np.testing.assert_array_equal(left, right)

    def test_recall_pinned_to_committed_baseline(self):
        """LEMP-BLSH recall stays within tolerance of the ratchet-era baseline.

        The baseline JSON was measured on the ratcheting implementation
        immediately before the order-free base landed (see
        ``tools/measure_blsh_recall.py``).
        """
        baseline = json.loads(
            (Path(__file__).parent / "data" / "blsh_recall_baseline.json").read_text()
        )
        config = baseline["config"]
        probes = synthetic_factors(
            config["num_probes"], rank=config["rank"],
            length_cov=config["length_cov"], seed=config["probe_seed"],
        )
        queries = synthetic_factors(
            config["num_queries"], rank=config["rank"],
            length_cov=config["length_cov"], seed=config["query_seed"],
        )
        theta = theta_for_result_count(queries, probes, config["result_count"])
        assert theta == pytest.approx(baseline["theta"], abs=1e-12)
        product = queries @ probes.T

        blsh = Lemp(algorithm="BLSH", seed=config["lemp_seed"]).fit(probes)
        exact = set(zip(*(arr.tolist() for arr in np.nonzero(product >= theta))))
        above_recall = len(blsh.above_theta(queries, theta).to_set() & exact) / len(exact)
        assert above_recall >= baseline["above_theta_recall"] - BLSH_RECALL_TOLERANCE

        k = config["k"]
        top = blsh.row_top_k(queries, k)
        exact_rows = np.argsort(-product, axis=1, kind="stable")[:, :k]
        overlap = sum(
            len(set(top.indices[row].tolist()) & set(exact_rows[row].tolist()))
            for row in range(queries.shape[0])
        )
        topk_recall = overlap / (queries.shape[0] * k)
        assert topk_recall >= baseline["row_top_k_recall"] - BLSH_RECALL_TOLERANCE
