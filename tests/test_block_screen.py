"""The bucket-major solvers against a per-pair reference walk.

The solvers score a bucket's LENGTH pairs with one float32 block product per
query block and re-verify only the rows whose f32 score reaches the pair's
threshold lowered by :func:`~repro.core.kernels.screen_slack`.  These tests
check that this changes nothing observable:

* **Boundary inputs.**  Probes are crafted so exact scores sit within a few
  ULPs of θ (and of θ minus the verification slack), within the f32 slack
  of both, and so Row-Top-k rows tie exactly at — and a few ULPs around and
  a few slacks below — the k-th score.  Edge inputs add lengths of 1e±300 in one
  store, zero-length rows, zero-norm queries and θ = ±∞ or negative.
  Results must be byte-identical to a minimal per-pair walk that verifies
  every candidate, with equal ``candidates`` / ``inner_products`` / bucket
  counters, under both verification kernels; and they must agree with the
  naive full product up to rounding at θ and tie-breaking at the k-th score.
* **Batch composition.**  The block product's rounding depends on which
  queries share a block, so a query row must get byte-identical results
  alone, inside a 7-row and a 1000-row call, and in a call cut into 250-row
  chunks.
* **The screen itself.**  :func:`block_survivors` must equal a brute-force
  reference (full f32 mask, cutoff mask, 2-D ``np.nonzero``) array for
  array, in ``(pair, row)`` order, keep every row the exact kernel keeps,
  and :func:`score_length_pairs` must split its pairs into query blocks,
  offset them and count every prefix row.  The slack must cover the largest
  gap between the f32 screen and the f64 kernel.
"""

from __future__ import annotations

import importlib.util
import math
import mmap
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RetrievalEngine, create_retriever
from repro.core import above_theta
from repro.core.above_theta import solve_above_theta
from repro.core.bucket import Bucket
from repro.core.kernels import gather_matvec, screen_slack, use_kernel
from repro.core.lemp import Lemp
from repro.core.results import AboveThetaResult
from repro.core.retrievers import IncrRetriever
from repro.core.retrievers.length import (BLOCK_ELEMENTS, LengthRetriever, block_survivors,
                                          score_length_pairs, screen_thresholds)
from repro.core.selector import PerBucketSelector, RetrieverSelector
from repro.core.stats import RunStats
from repro.core.thresholds import local_threshold, local_thresholds
from repro.core.top_k import seed_thresholds
from repro.core.vector_store import PreparedQueries, VectorStore
from repro.datasets.openie import IE_SVD_PROBE_COV, IE_SVD_QUERY_COV
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count
from repro.exceptions import InvalidParameterError
from tests.conftest import make_factors

RANK = 12
THETA = 0.5
K = 5
#: Verification slack of the Above-θ solver (scores >= θ - slack are kept).
SLACK = 1e-12
COUNTERS = ("candidates", "inner_products", "buckets_examined", "buckets_pruned")
#: Relative tolerance between two computations of one inner product.
RTOL = 1e-9
#: Relative steps that move a score within (and just past) the f32 screen's slack.
SLACK_STEPS = (1.0 + np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]) * screen_slack(RANK))[:, None]


def near_boundary_problem(seed: int):
    """Queries plus probes whose scores sit within ULPs and slacks of θ and of k-th ties."""
    rng = np.random.default_rng(seed)
    queries = make_factors(24, rank=RANK, length_cov=1.0, seed=seed)
    rows = [make_factors(400, rank=RANK, length_cov=1.0, seed=seed + 1)]
    ulps = (1.0 + np.arange(-4, 5) * 2.0**-52)[:, None]
    for query in queries[:12]:
        norm = np.linalg.norm(query)
        unit = query / norm

        def off_axis(scale):
            noise = rng.standard_normal(RANK)
            noise -= (noise @ unit) * unit
            return noise * (scale / np.linalg.norm(noise))

        for target in (THETA, THETA - SLACK):
            for _ in range(2):
                row = (target / norm) * unit + off_axis(rng.uniform(0.1, 2.0))
                rows += [row * ulps, row * SLACK_STEPS]
        # K - 3 clear leaders, a ULP-above neighbour of a probe duplicated
        # five times, and ULP-below neighbours: the k-th score is a tie.
        # Slack-below neighbours sit where the f32 screen cannot tell them
        # from the tie.
        rows.append(np.outer(3.0 + 0.1 * np.arange(K - 3), unit))
        tie = 2.5 * unit + off_axis(0.3)
        rows.append(np.repeat(tie[None], 4, axis=0))
        rows.append(tie * ulps[:6])
        rows.append(tie * SLACK_STEPS[:3])
    probes = np.vstack(rows)
    return queries, probes[rng.permutation(len(probes))]


def reference_walk(prepared, buckets, selector, problem, parameter, seeds=None):
    """Per-pair solver walk: every candidate verified, nothing screened.

    Row-Top-k walks each query at its fixed θ′ from ``seeds`` and keeps the
    k best verified (score, id) pairs.
    """
    stats = RunStats()

    def count(name, value):
        setattr(stats, name, getattr(stats, name) + int(value))

    if problem == "above_theta":
        found = []
        for bucket in buckets:
            for position in range(prepared.size):
                norm, query = float(prepared.norms[position]), prepared.directions[position]
                theta_b = local_threshold(parameter, norm, bucket.max_length)
                if theta_b > 1.0:
                    count("buckets_pruned", 1)
                    continue
                count("buckets_examined", 1)
                retriever, phi = selector.select(bucket, theta_b)
                rows = retriever.retrieve(bucket, query, norm, parameter, theta_b, phi)
                count("candidates", rows.size)
                count("inner_products", rows.size)
                cosines = gather_matvec(bucket.directions, rows, query)
                scores = cosines * (norm * bucket.lengths[rows])
                hits = scores >= parameter - SLACK
                found += [(prepared.ids[position], pid, score)
                          for pid, score in zip(bucket.ids[rows[hits]], scores[hits])]
        return tuple(np.array(column, dtype=dtype) for column, dtype in
                     zip(zip(*found), (np.int64, np.int64, np.float64))), stats
    k = min(parameter, sum(bucket.size for bucket in buckets))
    indices = np.full((prepared.size, parameter), -1, dtype=np.int64)
    scores = np.full((prepared.size, parameter), -np.inf)
    for position in range(prepared.size):
        ids, best, theta_prime = np.empty(0, np.int64), np.empty(0), float(seeds[position])
        query = prepared.directions[position]
        for bucket in buckets:
            theta_b = local_threshold(theta_prime, 1.0, bucket.max_length)
            if theta_b > 1.0:
                count("buckets_pruned", 1)
                continue
            count("buckets_examined", 1)
            retriever, phi = selector.select(bucket, theta_b)
            rows = retriever.retrieve(bucket, query, 1.0, theta_prime, theta_b, phi)
            count("candidates", rows.size)
            count("inner_products", rows.size)
            ids = np.concatenate((ids, bucket.ids[rows].astype(np.int64)))
            best = np.concatenate((best, gather_matvec(bucket.directions, rows, query)
                                   * bucket.lengths[rows]))
        keep = np.lexsort((ids, -best))[:k]
        ids, best = ids[keep], best[keep]
        # θ′ is a lower bound on the k-th score: k verified rows reach it.
        assert ids.size == k and best[-1] >= theta_prime
        original = prepared.ids[position]
        indices[original, :ids.size] = ids
        scores[original, :ids.size] = best * prepared.norms[position]
    return (indices, scores), stats


def solve_both(spec, kernel, problem, queries, probes, parameter=None):
    """The engine's answer and counters, and the reference walk's, on one warm engine."""
    if parameter is None:
        parameter = THETA if problem == "above_theta" else K
    with use_kernel(kernel):
        lemp = Lemp(algorithm=spec).fit(probes)
        getattr(lemp, problem)(queries, parameter)  # warm: tuning cached from here on
        prepared = PreparedQueries(queries)
        thetas = (np.full(prepared.size, parameter) if problem == "above_theta"
                  else seed_thresholds(prepared, lemp.layout(), parameter))
        selector = lemp._build_selector(prepared, thetas, problem, float(parameter))
        buckets = lemp.buckets
        before = {name: getattr(lemp.stats, name) for name in COUNTERS}
        result = getattr(lemp, problem)(queries, parameter)
        counters = {name: getattr(lemp.stats, name) - before[name] for name in COUNTERS}
        expected, reference_stats = reference_walk(prepared, buckets, selector, problem,
                                                   parameter, thetas)
    arrays = ((result.query_ids, result.probe_ids, result.scores)
              if problem == "above_theta" else (result.indices, result.scores))
    return arrays, counters, expected, {name: getattr(reference_stats, name)
                                        for name in COUNTERS}


def solve_above_theta_both(spec, kernel, queries, probes, theta):
    """:func:`solve_both` for a θ the engine rejects: the solver is called directly."""
    with use_kernel(kernel):
        lemp = Lemp(algorithm=spec).fit(probes)
        with pytest.raises(InvalidParameterError):
            lemp.above_theta(queries, theta)
        prepared = PreparedQueries(queries)
        selector = lemp._build_selector(prepared, np.full(prepared.size, theta), "above_theta",
                                        theta)
        stats = RunStats()
        arrays = solve_above_theta(prepared, lemp.layout(), theta, selector, stats)
        expected, reference_stats = reference_walk(prepared, lemp.buckets, selector,
                                                   "above_theta", theta)
    return arrays, {name: getattr(stats, name) for name in COUNTERS}, expected, {
        name: getattr(reference_stats, name) for name in COUNTERS}


def assert_above_theta_matches_naive(arrays, queries, probes, theta):
    """Same pairs and scores as the naive product, up to rounding at θ."""
    product = queries @ probes.T
    ours = {(q, p): s for q, p, s in zip(*(a.tolist() for a in arrays))}
    theirs = {(q, p): product[q, p] for q, p in zip(*np.nonzero(product >= theta))}
    for pair in ours.keys() ^ theirs.keys():
        assert abs(ours.get(pair, theirs.get(pair)) - theta) <= RTOL * max(1.0, abs(theta))
    for pair in ours.keys() & theirs.keys():
        assert ours[pair] == pytest.approx(theirs[pair], rel=RTOL, abs=1e-300)


def assert_row_top_k_matches_naive(arrays, queries, probes, k):
    """Same scores as the naive product, and the same rows up to ties at the k-th score."""
    indices, scores = arrays
    naive = create_retriever("naive").fit(probes).row_top_k(queries, k)
    np.testing.assert_allclose(scores, naive.scores, rtol=RTOL, atol=1e-300)
    for row in range(queries.shape[0]):
        kth = scores[row, k - 1]
        tolerance = RTOL * max(1.0, abs(kth))
        clear = scores[row] > kth + tolerance
        naive_clear = naive.scores[row] > kth + tolerance
        assert set(indices[row][clear]) == set(naive.indices[row][naive_clear])
        true_scores = probes[indices[row]] @ queries[row]
        np.testing.assert_allclose(true_scores, scores[row], rtol=RTOL, atol=1e-300)


def assert_matches_reference(arrays, counters, expected, reference_counters):
    for actual, wanted in zip(arrays, expected):
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes()
    assert counters == reference_counters


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI"])
def test_above_theta_near_threshold_matches_reference_and_naive(spec, kernel):
    queries, probes = near_boundary_problem(seed=5)
    arrays, counters, expected, reference_counters = solve_both(
        spec, kernel, "above_theta", queries, probes)
    assert_matches_reference(arrays, counters, expected, reference_counters)
    scores = arrays[2]
    # The inputs really are adversarial: results within a few ULPs of the
    # threshold and of the slack-lowered threshold, and within the f32
    # screen's slack of θ without being ULPs from it.
    assert np.any(np.abs(scores - THETA) < 1e-14)
    assert np.any(np.abs(scores - (THETA - SLACK)) < 1e-14)
    gaps = np.abs(scores - THETA)
    assert np.any((gaps > 1e-10) & (gaps <= screen_slack(RANK) * THETA))
    assert_above_theta_matches_naive(arrays, queries, probes, THETA)


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI"])
def test_row_top_k_kth_ties_match_reference_and_naive(spec, kernel):
    queries, probes = near_boundary_problem(seed=6)
    arrays, counters, expected, reference_counters = solve_both(
        spec, kernel, "row_top_k", queries, probes)
    assert_matches_reference(arrays, counters, expected, reference_counters)
    scores = arrays[1]
    # The inputs really are adversarial: crafted rows tie at the k-th score.
    assert np.sum(scores[:, K - 1] == scores[:, K - 2]) >= 6
    assert_row_top_k_matches_naive(arrays, queries, probes, K)


@given(
    rank=st.integers(min_value=4, max_value=16),
    duplicates=st.integers(min_value=2, max_value=6),
    spec=st.sampled_from(["L", "LI"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_duplicate_rows_tie_at_the_kth_score(rank, duplicates, spec, seed):
    """Exact duplicate probe rows tie at the k-th score: the naive answer up to those
    ties, and among rows of equal score bits the lowest ids are kept."""
    base = make_factors(30, rank=rank, length_cov=1.0, seed=seed)
    probes = np.vstack([base] + [base[:10]] * duplicates)
    queries = make_factors(12, rank=rank, length_cov=1.0, seed=seed + 1)
    result = Lemp(algorithm=spec, seed=0).fit(probes).row_top_k(queries, K)
    assert_row_top_k_matches_naive((result.indices, result.scores), queries, probes, K)
    for row in range(queries.shape[0]):
        kept = set(result.indices[row].tolist())
        for probe in kept:
            twins = np.flatnonzero((probes == probes[probe]).all(axis=1))
            assert set(twins[twins < probe].tolist()) <= kept


def edge_problem(case: str):
    """Queries and probes of one named degenerate case."""
    queries = make_factors(24, rank=RANK, length_cov=1.0, seed=41)
    probes = make_factors(600, rank=RANK, length_cov=1.0, seed=42)
    if case == "extreme_lengths":
        # 1e300-long and 1e-300-long rows beside ordinary ones, in one store.
        probes[:100] *= 1e300
        probes[100:200] *= 1e-300
    elif case == "zero_length_rows":
        probes[::7] = 0.0
    elif case == "zero_norm_queries":
        queries[::5] = 0.0
    return queries, probes


EDGE_CASES = [
    ("above_theta", "extreme_lengths", THETA * 1e300),
    ("above_theta", "extreme_lengths", -THETA),
    ("above_theta", "zero_length_rows", THETA),
    ("above_theta", "zero_length_rows", -THETA),
    ("above_theta", "zero_norm_queries", THETA),
    ("above_theta", "zero_norm_queries", -THETA),
    ("above_theta", "plain", math.inf),
    ("above_theta", "plain", -math.inf),
    ("above_theta", "plain", -THETA),
    ("row_top_k", "extreme_lengths", K),
    ("row_top_k", "zero_length_rows", K),
    ("row_top_k", "zero_norm_queries", K),
]


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI"])
@pytest.mark.parametrize("problem, case, parameter", EDGE_CASES,
                         ids=[f"{p}-{c}-{v:g}" for p, c, v in EDGE_CASES])
def test_edge_inputs_match_reference_and_naive(problem, case, parameter, spec, kernel):
    queries, probes = edge_problem(case)
    # Underflow and overflow to ±inf are expected here; NaN is not.
    with np.errstate(invalid="raise"):
        if problem == "above_theta" and not 0.0 < parameter < math.inf:
            arrays, counters, expected, reference_counters = solve_above_theta_both(
                spec, kernel, queries, probes, parameter)
        else:
            arrays, counters, expected, reference_counters = solve_both(
                spec, kernel, problem, queries, probes, parameter)
    assert_matches_reference(arrays, counters, expected, reference_counters)
    assert not any(np.isnan(array).any() for array in arrays if array.dtype.kind == "f")
    if problem == "above_theta":
        assert_above_theta_matches_naive(arrays, queries, probes, parameter)
        if parameter == -math.inf:
            assert arrays[0].size == queries.shape[0] * probes.shape[0]
        elif parameter == math.inf:
            assert arrays[0].size == 0
        else:
            assert arrays[0].size > 0
    else:
        assert_row_top_k_matches_naive(arrays, queries, probes, parameter)


def test_screen_bound_covers_two_summation_orders():
    """Forward and reverse f32 summation of rank-r unit-vector dot products
    never differ by more than the slack (it is far from tight)."""
    rng = np.random.default_rng(0)
    for rank in (1, 2, 12, 50, 300):
        x = rng.standard_normal((200, rank))
        y = rng.standard_normal((200, rank))
        x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
        y = (y / np.linalg.norm(y, axis=1, keepdims=True)).astype(np.float32)
        forward = np.zeros(200, dtype=np.float32)
        backward = np.zeros(200, dtype=np.float32)
        for column in range(rank):
            forward += x[:, column] * y[:, column]
            backward += x[:, rank - 1 - column] * y[:, rank - 1 - column]
        assert np.max(np.abs(forward.astype(np.float64) - backward)) <= screen_slack(rank)
    assert screen_slack(50) < 1e-5


@pytest.mark.parametrize("rank", [1, 50, 400])
def test_screen_slack_covers_f32_gap(rank):
    """The slack covers the largest gap between the f32 screen and the f64
    kernel, and a row whose exact score equals its threshold survives."""
    store = VectorStore(make_factors(1500, rank=rank, length_cov=0.8, seed=rank))
    bucket = Bucket(store, 0, store.size, 0)
    queries = PreparedQueries(make_factors(60, rank=rank, length_cov=0.8, seed=rank + 1))
    rows, exponent = bucket.screen_slice()
    screen = queries.directions32 @ rows.T
    cosines = np.stack([gather_matvec(bucket.directions, np.arange(bucket.size), query)
                        for query in queries.directions])
    scaled = np.ldexp(cosines * bucket.lengths, -exponent)
    gap = float(np.max(np.abs(screen - scaled)))
    assert 0.0 < gap <= screen_slack(rank)
    pairs = np.repeat(np.arange(queries.size), bucket.size)
    # The solvers' exact keep tests, with each row's own score as threshold.
    for norms, scores in ((None, cosines * bucket.lengths),
                          (queries.norms[pairs], cosines * (queries.norms[:, None]
                                                            * bucket.lengths))):
        limits = screen_thresholds(scores.ravel(), norms, exponent, rank)
        assert np.all(screen.ravel() >= limits)


@pytest.fixture(scope="module")
def composition_engine():
    probes = make_factors(3000, rank=16, length_cov=0.6, seed=21)
    queries = make_factors(1000, rank=16, length_cov=0.6, seed=22)
    engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
    engine.row_top_k(queries, K)
    theta = float(np.quantile(queries[:100] @ probes.T, 0.95))
    engine.above_theta(queries, theta)
    return engine, queries, theta


def _row_answer(result, row: int):
    """One query row's answer as raw bytes (Above-θ keeps its emit order)."""
    if hasattr(result, "indices"):
        return result.indices[row].tobytes(), result.scores[row].tobytes()
    mine = result.query_ids == row
    return result.probe_ids[mine].tobytes(), result.scores[mine].tobytes()


@pytest.mark.parametrize("problem", ["row_top_k", "above_theta"])
def test_row_answer_is_independent_of_batch_composition(composition_engine, problem):
    engine, queries, theta = composition_engine
    parameter = K if problem == "row_top_k" else theta
    lemp = engine.retriever

    def solve(block, **kwargs):
        return getattr(engine, problem)(block, parameter, **kwargs)

    full = solve(queries)
    chunked = solve(queries, batch_size=250)
    assert engine.history[-1].num_batches == 4
    answered = 0
    for row in (0, 3, 499, 998):
        alone = _row_answer(solve(queries[row:row + 1]), 0)
        answered += bool(alone[0])
        start = min(max(row - 3, 0), len(queries) - 7)
        assert _row_answer(solve(queries[start:start + 7]), row - start) == alone
        assert _row_answer(full, row) == alone
        assert _row_answer(chunked, row) == alone
    assert answered >= 3


def slow_mmap(monkeypatch):
    """Make every ``mmap.mmap`` call yield for a while, as a page-mapping syscall may."""
    original = mmap.mmap

    def mapped(*args, **kwargs):
        time.sleep(0.005)
        return original(*args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", mapped)


def test_parallel_chunks_fill_a_cold_screen_buffer(monkeypatch):
    """Four threads, each solving chunks on its own worker view, meet in the cold
    buckets of an index no call has screened yet: every fill lands in the store's
    one buffer, and answers match a serial engine."""
    probes = make_factors(4000, rank=16, length_cov=1.2, seed=23)
    queries = make_factors(800, rank=16, length_cov=1.2, seed=24)
    queries[:50] = 0.0
    theta = float(np.quantile(queries[-50:] @ probes.T, 0.97))
    serial = RetrievalEngine(Lemp(algorithm="L", max_bucket_size=40).fit(probes))
    expected = serial.above_theta(queries, theta, batch_size=50)
    starts = list(range(0, len(queries), 50))
    slow_mmap(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            lemp = Lemp(algorithm="L", max_bucket_size=40).fit(probes)
            parts = {}

            def solve(view, mine):
                for start in mine:
                    parts[start] = view.above_theta(queries[start:start + 50], theta)

            threads = [threading.Thread(target=solve, args=(lemp.worker_view(), starts[i::4]))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            result = AboveThetaResult.concat([parts[start] for start in starts], theta,
                                             query_offsets=starts)
            for name in ("query_ids", "probe_ids", "scores"):
                assert getattr(result, name).tobytes() == getattr(expected, name).tobytes()
    finally:
        sys.setswitchinterval(interval)
    rows = lemp.store.screen_rows
    filled = [bucket for bucket in lemp.buckets if bucket._filled is not None]
    assert filled and all(bucket._filled is rows for bucket in filled)
    for bucket in filled:
        scaled = np.ldexp(bucket.lengths, -bucket.screen_exponent)[:, None]
        assert rows[bucket.start:bucket.end].tobytes() == np.asarray(
            bucket.directions * scaled, dtype=np.float32).tobytes()


def test_repack_moves_buckets_onto_a_new_buffer_and_they_refill():
    """A re-pack that keeps the cuts gives the store a new screen buffer; the moved
    buckets drop the old one and fill their slices of the new one on next use."""
    probes = make_factors(3000, rank=16, length_cov=1.2, seed=25)
    queries = make_factors(40, rank=16, length_cov=1.2, seed=26)
    theta = float(np.quantile(queries @ probes.T, 0.99))
    lemp = Lemp(algorithm="L", max_bucket_size=40).fit(probes)
    lemp.above_theta(queries, theta)
    before = lemp.store.screen_rows
    buckets = list(lemp.buckets)
    assert any(bucket._filled is before for bucket in buckets)
    lemp.remove([0])  # the first write re-packs the store
    assert lemp.store.screen_rows is not before
    kept = [bucket for bucket in buckets if any(bucket is other for other in lemp.buckets)]
    assert kept and all(bucket._filled is None for bucket in kept)
    result = lemp.above_theta(queries, theta)
    expected = create_retriever("naive").fit(np.delete(probes, 0, axis=0)).above_theta(
        queries, theta)
    assert set(zip(result.query_ids.tolist(), result.probe_ids.tolist())) == set(
        zip(expected.query_ids.tolist(), expected.probe_ids.tolist()))
    assert any(bucket._filled is lemp.store.screen_rows for bucket in lemp.buckets)


# ------------------------------------------------------- the screen itself

SCREEN_RANK = 8


@pytest.fixture(scope="module")
def screen_store():
    return VectorStore(make_factors(2000, rank=SCREEN_RANK, length_cov=0.8, seed=31))


@pytest.fixture(scope="module")
def edge_stores():
    """Stores with 1e±300-long rows and with zero-length rows."""
    vectors = make_factors(2000, rank=SCREEN_RANK, length_cov=0.8, seed=33)
    extreme = vectors.copy()
    extreme[:300] *= 1e300
    extreme[300:600] *= 1e-300
    zeros = vectors.copy()
    zeros[::5] = 0.0
    return {"extreme": VectorStore(extreme), "zero_length": VectorStore(zeros)}


def ldexp(value: float, exponent: int) -> float:
    """``value · 2^exponent``, ``inf`` past the float range."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return math.inf


def reference_limit(threshold: float, norm: float, exponent: int, rank: int) -> np.float32:
    """One pair's f32 threshold, written out scalar by scalar."""
    scale = ldexp(norm, exponent)
    if not 2.0**-1000 <= scale <= 2.0**1020:
        return np.float32(-np.inf)
    value = min(max(threshold / scale, -2.0), 2.0) - screen_slack(rank)
    low = np.float32(value)
    return np.nextafter(low, np.float32(-np.inf)) if float(low) > value else low


@pytest.mark.parametrize("exponent", [-1000, -1, 0, 3, 1000])
def test_screen_thresholds_round_down_without_nan(exponent):
    """Each f32 threshold is the largest f32 at or below the f64 one; edge
    thresholds and norms give a defined, NaN-free answer."""
    rng = np.random.default_rng(exponent + 2000)
    thresholds = np.ldexp(rng.standard_normal(400), exponent)
    thresholds[:4] = -np.inf, np.inf, 0.0, -0.0
    norms = rng.lognormal(size=400)
    norms[4:8] = 0.0, 1e-310, 1e300, np.nextafter(2.0**-1000, 0.0)
    for query_norms in (None, norms):
        limits = screen_thresholds(thresholds, query_norms, exponent, SCREEN_RANK)
        assert limits.dtype == np.float32 and not np.isnan(limits).any()
        for index, limit in enumerate(limits.tolist()):
            norm = 1.0 if query_norms is None else float(norms[index])
            assert limit == float(reference_limit(float(thresholds[index]), norm, exponent,
                                                  SCREEN_RANK))
            scale = ldexp(norm, exponent)
            if 2.0**-1000 <= scale <= 2.0**1020:
                value = min(max(float(thresholds[index]) / scale, -2.0), 2.0) - screen_slack(
                    SCREEN_RANK)
                assert limit <= value < float(np.nextafter(np.float32(limit), np.float32(np.inf)))
            else:
                assert limit == -np.inf


def reference_survivors(bucket, queries, cutoffs, thresholds, query_norms=None):
    """:func:`block_survivors` by brute force: full mask, cut mask, 2-D ``np.nonzero``."""
    limit = int(cutoffs.max())
    inside = np.arange(limit) < cutoffs[:, None]
    rows, exponent = bucket.screen_slice()
    norms = np.ones(cutoffs.size) if query_norms is None else query_norms
    limits = np.array([reference_limit(float(t), float(n), exponent, queries.shape[1])
                       for t, n in zip(thresholds, norms)], dtype=np.float32)
    keep = queries.astype(np.float32) @ rows[:limit].T >= limits[:, None]
    return np.nonzero(keep & inside)


def assert_same_survivors(actual, expected):
    for got, wanted in zip(actual, expected):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, wanted)
    pairs, rows = actual
    order = np.lexsort((rows, pairs))
    assert np.array_equal(order, np.arange(pairs.size))


#: Bucket ``[start, end)`` of each case's store.
SCREEN_SPANS = {"extreme": (100, 400), "extreme_tail": (1500, 2000), "zero_length": (1400, 2000),
                "all_zero": (1700, 2000)}


def screen_case(store, stores, case, rng):
    """``(bucket, queries, cutoffs, thresholds, query_norms)`` for one named case."""
    if case in ("extreme", "extreme_tail"):
        store = stores["extreme"]
    elif case in ("zero_length", "all_zero"):
        store = stores["zero_length"]
    bucket = Bucket(store, *SCREEN_SPANS.get(case, (100, 400)), 1)
    pairs = 1 if case == "one_pair" else 37
    queries = PreparedQueries(make_factors(pairs, rank=SCREEN_RANK, length_cov=0.5,
                                           seed=int(rng.integers(1 << 30))))
    directions, norms = queries.directions.copy(), queries.norms.copy()
    if case == "zero_norm":
        directions[:5], norms[:5] = 0.0, 0.0
    elif case == "tiny_norm":
        norms[:5] = 1e-310  # ‖q‖·2ᴱ below the screen's range: keep every row
    if case == "equal":
        cutoffs = np.full(pairs, 250)
    elif case == "one_pair":
        cutoffs = np.array([180])
    elif case == "limit_one":
        cutoffs = rng.integers(0, 2, pairs)
        cutoffs[0] = 1
    else:
        cutoffs = rng.integers(0, bucket.size + 1, pairs)
        cutoffs[:2] = 0, bucket.size
    scores = bucket.directions @ directions.T * bucket.lengths[:, None]
    thresholds = np.quantile(scores, 0.1 if case == "negative" else 0.9, axis=0)
    if case == "minus_inf":
        thresholds[:] = -np.inf
    elif case == "plus_inf":
        thresholds[:] = np.inf
    elif case == "zero_norm":
        thresholds[:3] = -1.0
    return bucket, directions, cutoffs, thresholds, norms


SCREEN_CASES = ["mixed", "equal", "one_pair", "limit_one", "minus_inf", "plus_inf", "negative",
                "zero_norm", "tiny_norm", "extreme", "extreme_tail", "zero_length", "all_zero"]


@pytest.mark.parametrize("with_norms", [True, False], ids=["above_theta", "row_top_k"])
@pytest.mark.parametrize("case", SCREEN_CASES)
def test_block_survivors_match_brute_force(screen_store, edge_stores, case, with_norms):
    rng = np.random.default_rng(SCREEN_CASES.index(case))
    bucket, queries, cutoffs, thresholds, norms = screen_case(screen_store, edge_stores, case,
                                                              rng)
    norms = norms if with_norms else None
    with np.errstate(invalid="raise"):
        actual = block_survivors(bucket, queries, cutoffs, thresholds, norms)
    assert_same_survivors(actual, reference_survivors(bucket, queries, cutoffs, thresholds,
                                                      norms))
    pairs, rows = actual
    assert np.all(rows < cutoffs[pairs])
    if case == "minus_inf":
        assert pairs.size == cutoffs.sum()
    # The screen is conservative: every row the solvers' exact keep test
    # keeps survives.
    kept = set(zip(pairs.tolist(), rows.tolist()))
    for pair in range(cutoffs.size):
        candidates = np.arange(cutoffs[pair])
        scale = bucket.lengths[candidates]
        if norms is not None:
            scale = norms[pair] * scale
        exact = gather_matvec(bucket.directions, candidates, queries[pair]) * scale
        for row in np.nonzero(exact >= thresholds[pair])[0].tolist():
            assert (pair, row) in kept


@pytest.mark.parametrize("with_norms", [True, False], ids=["above_theta", "row_top_k"])
def test_score_length_pairs_splits_into_query_blocks(screen_store, with_norms):
    bucket = Bucket(screen_store, 0, screen_store.size, 0)
    queries = PreparedQueries(make_factors(400, rank=SCREEN_RANK, length_cov=0.5, seed=32))
    positions = np.arange(queries.size)[::-1].copy()
    norms = queries.norms[positions] if with_norms else None
    scores = bucket.directions @ queries.directions[positions].T * bucket.lengths[:, None]
    if with_norms:
        scores *= norms
    quantiles = np.linspace(0.5, 0.999, positions.size)
    thetas = np.quantile(scores, quantiles, axis=0).diagonal().copy()
    thetas[:3] = -1.0  # non-positive θ: every row of the bucket is a candidate
    stats = RunStats()
    blocks = list(score_length_pairs(bucket, queries, positions, norms, thetas, thetas, stats))
    cutoffs = LengthRetriever.cutoffs(bucket, thetas, 1.0 if norms is None else norms)
    width = max(1, BLOCK_ELEMENTS // int(cutoffs.max()))
    assert width < positions.size // 2  # several query blocks
    assert stats.candidates == stats.inner_products == int(cutoffs.sum())

    expected = []
    for start in range(0, cutoffs.size, width):
        block = slice(start, start + width)
        pairs, rows = reference_survivors(
            bucket, queries.directions[positions[block]], cutoffs[block], thetas[block],
            None if norms is None else norms[block])
        if pairs.size:
            expected.append((pairs + start, rows))
    assert len(blocks) == len(expected) > 1
    for (pairs, rows), (wanted_pairs, wanted_rows) in zip(blocks, expected):
        assert_same_survivors((pairs, rows), (wanted_pairs, wanted_rows))
        # Row-Top-k verifies a block's survivors with one grouped call; each
        # row keeps the bits of a per-pair call.
        cosines = gather_matvec(bucket.directions, rows, queries.directions,
                                groups=positions[pairs])
        for pair in np.unique(pairs).tolist():
            mine = pairs == pair
            query = queries.directions[positions[pair]]
            assert cosines[mine].tobytes() == gather_matvec(bucket.directions, rows[mine],
                                                            query).tobytes()


def test_tuner_cost_tool_still_runs(monkeypatch):
    """``tools/measure_tuner_costs.py`` times :func:`block_survivors`; keep it importable."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the tool sets these; restore them afterwards
    path = Path(__file__).resolve().parents[1] / "tools" / "measure_tuner_costs.py"
    spec = importlib.util.spec_from_file_location("measure_tuner_costs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seconds = tool.per_row(64, 8)
    assert np.isfinite(seconds) and seconds > 0


# ------------------------------------------------------------------ spans

class PerBucket(RetrieverSelector):
    """A selector's routes with spans switched off: every bucket is screened on its own."""

    def __init__(self, inner: RetrieverSelector) -> None:
        self.inner = inner

    def select(self, bucket, theta_b):
        return self.inner.select(bucket, theta_b)

    def split(self, bucket, theta_bs):
        return self.inner.split(bucket, theta_bs)


def split_selector(buckets, prepared, theta):
    """LENGTH below a switch point at the median θ_b of every third bucket's active
    queries, and everywhere else: spans break around the mixed buckets."""
    switches = {}
    for bucket in buckets:
        theta_b = local_thresholds(theta, prepared.norms, bucket.max_length)
        reached = theta_b[theta_b <= 1.0]
        switches[bucket.index] = (float(np.median(reached)) if bucket.index % 3 == 1
                                  and reached.size else math.inf)
    return PerBucketSelector(LengthRetriever(), IncrRetriever(), switches, {})


@pytest.fixture(scope="module")
def span_data():
    """ie-svd-like skew at rank 12: many buckets, several per screen exponent."""
    rng = np.random.default_rng(71)
    queries = synthetic_factors(1000, RANK, length_cov=IE_SVD_QUERY_COV, seed=rng)
    probes = synthetic_factors(4000, RANK, length_cov=IE_SVD_PROBE_COV, seed=rng)
    theta = theta_for_result_count(queries[:200], probes, 2000, block_size=64)
    return queries, probes, theta


def span_index(state, probes, tmp_path):
    """A fitted, written-to or saved-and-memory-mapped ``lemp:LI`` index and its live rows."""
    lemp = Lemp(algorithm="LI", max_bucket_size=60).fit(probes)
    if state == "fresh":
        return lemp, probes
    extra = synthetic_factors(40, RANK, length_cov=IE_SVD_PROBE_COV, seed=72)
    removed = np.arange(0, probes.shape[0], 29)
    lemp.partial_fit(extra).remove(removed)
    probes = np.delete(np.vstack((probes, extra)), removed, axis=0)
    if state == "mmap":
        RetrievalEngine(lemp).save(tmp_path / "index")
        lemp = RetrievalEngine.load(tmp_path / "index", mmap_mode="r").retriever
    return lemp, probes


@pytest.mark.parametrize("state", ["fresh", "mutated", "mmap"])
@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
def test_spans_match_per_bucket_walk_reference_and_naive(span_data, state, kernel,
                                                         tmp_path, monkeypatch):
    """Spans change nothing observable: answers, their order and bits, and all four
    counters equal the per-bucket walk's and, up to 7 rows, the per-pair reference's."""
    queries, probes, theta = span_data
    spans, alone = [], []
    original_span, original_bucket = above_theta._screen_span, above_theta._screen_bucket

    def span(layout, first, stop, *args):
        spans.append(stop - first)
        return original_span(layout, first, stop, *args)

    def bucket(*args):
        alone.append(args[0].index)
        return original_bucket(*args)

    monkeypatch.setattr(above_theta, "_screen_span", span)
    monkeypatch.setattr(above_theta, "_screen_bucket", bucket)
    with use_kernel(kernel):
        lemp, probes = span_index(state, probes, tmp_path)
        for rows in (1, 3, 7, 1000):
            block = queries[:rows]
            prepared = PreparedQueries(block)
            selectors = {"split": split_selector(lemp.buckets, prepared, theta)}
            for spec in ("L", "LI", "I", "LC"):
                # The selector each LEMP variant builds, tuned on this index.
                lemp.algorithm = spec
                selectors[spec] = lemp._build_selector(prepared, np.full(prepared.size, theta),
                                                       "above_theta", theta)
            lemp.algorithm = "LI"
            for spec, selector in selectors.items():
                if rows == 1000 and spec in ("I", "LC"):
                    continue  # 1000 queries scanned pair by pair are slow; 1–7 rows cover them
                stats, bucket_stats = RunStats(), RunStats()
                arrays = solve_above_theta(prepared, lemp.layout(), theta, selector, stats)
                expected = solve_above_theta(prepared, lemp.layout(), theta, PerBucket(selector),
                                             bucket_stats)
                counters = {name: getattr(stats, name) for name in COUNTERS}
                assert_matches_reference(arrays, counters, expected,
                                         {name: getattr(bucket_stats, name) for name in COUNTERS})
                if rows <= 7:
                    reference, reference_stats = reference_walk(prepared, lemp.buckets, selector,
                                                                "above_theta", theta)
                    assert_matches_reference(arrays, counters, reference, {
                        name: getattr(reference_stats, name) for name in COUNTERS})
                assert_above_theta_matches_naive(arrays, block, probes, theta)
    assert max(spans) > 1 and alone  # spans of several buckets, and mixed buckets


@pytest.mark.parametrize("theta", [-THETA, 0.0, -math.inf])
@pytest.mark.parametrize("spec", ["L", "LI"])
def test_spans_with_non_positive_theta_and_zero_norm_queries(span_data, spec, theta):
    """Every bucket is live at θ ≤ 0, zero-norm queries included: spans cover the
    whole store, gaps of a written index included, and still match the walks."""
    queries, probes, _ = span_data
    queries = queries[:40].copy()
    queries[::6] = 0.0
    lemp = Lemp(algorithm=spec, max_bucket_size=60).fit(probes[:1500])
    lemp.remove(np.arange(0, 1500, 7))
    probes = np.delete(probes[:1500], np.arange(0, 1500, 7), axis=0)
    assert lemp.store.capacity > lemp.store.size  # gap rows inside the spans
    prepared = PreparedQueries(queries)
    selector = lemp._build_selector(prepared, np.full(prepared.size, theta), "above_theta", theta)
    with np.errstate(invalid="raise"):
        stats, bucket_stats = RunStats(), RunStats()
        arrays = solve_above_theta(prepared, lemp.layout(), theta, selector, stats)
        expected = solve_above_theta(prepared, lemp.layout(), theta, PerBucket(selector),
                                     bucket_stats)
        reference, reference_stats = reference_walk(prepared, lemp.buckets, selector,
                                                    "above_theta", theta)
    counters = {name: getattr(stats, name) for name in COUNTERS}
    assert_matches_reference(arrays, counters, expected,
                             {name: getattr(bucket_stats, name) for name in COUNTERS})
    assert_matches_reference(arrays, counters, reference,
                             {name: getattr(reference_stats, name) for name in COUNTERS})
    if theta == -math.inf:
        assert arrays[0].size == queries.shape[0] * probes.shape[0]
    # Zero-norm queries score 0, which reaches every θ ≤ 0.
    assert set(arrays[0][arrays[2] == 0.0].tolist()) >= set(range(0, queries.shape[0], 6))
    assert_above_theta_matches_naive(arrays, queries, probes, theta)


def test_walk_is_exact_where_rounding_moves_the_bucket_boundary():
    """Query norms within ULPs of θ / l_b: one search over the longest lengths misses
    the exact ``θ_b ≤ 1`` boundary by a bucket in both directions; the walk does not,
    and its LENGTH prefixes are the per-bucket cutoffs summed over the live buckets."""
    probes = make_factors(3000, rank=8, length_cov=1.0, seed=9)
    lemp = Lemp(algorithm="L", min_bucket_size=4, max_bucket_size=20, cache_kib=None).fit(probes)
    layout, theta = lemp.layout(), 0.7
    norms = theta / layout.max_lengths[:, None] * (1.0 + np.arange(-6, 7) * 2.0**-52)
    norms = np.sort(norms.ravel())[::-1]
    live, prefix = layout.walk(theta, norms)
    reached = np.array([local_thresholds(theta, norms, bucket.max_length) <= 1.0
                        for bucket in lemp.buckets])
    exact = reached.sum(axis=0)
    assert np.all(reached[:-1] >= reached[1:])  # the live buckets are a prefix
    assert np.array_equal(live, exact)
    searched = np.searchsorted(-layout.max_lengths, -(theta / norms), side="right")
    assert np.any(searched > exact) and np.any(searched < exact)
    cutoffs = np.array([LengthRetriever.cutoffs(bucket, theta, norms) for bucket in lemp.buckets])
    assert np.array_equal(prefix, (cutoffs * reached).sum(axis=0))
