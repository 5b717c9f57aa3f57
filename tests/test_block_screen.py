"""The bucket-major solvers against a per-pair reference walk.

The solvers score a bucket's LENGTH pairs with one block product per query
block and re-verify only the rows whose block score comes within
:func:`~repro.core.kernels.screen_bound` of the threshold.  These tests
check that this changes nothing observable:

* **Boundary inputs.**  Probes are crafted so exact scores sit within a few
  ULPs of θ (and of θ minus the verification slack), and so Row-Top-k rows
  tie exactly at — and a few ULPs around — the k-th score.  Results must be
  byte-identical to a minimal per-pair walk that verifies every candidate,
  with equal ``candidates`` / ``inner_products`` / bucket counters, under
  both verification kernels; and they must agree with the naive full
  product up to rounding at θ and tie-breaking at the k-th score.
* **Batch composition.**  The block product's rounding depends on which
  queries share a block, so a query row must get byte-identical results
  alone, inside a 7-row and a 1000-row call, and with ``workers=2``.
* **The screen itself.**  :func:`block_survivors` must equal a brute-force
  reference (full threshold mask, cutoff mask, 2-D ``np.nonzero``) array for
  array, in ``(pair, row)`` order, and :func:`score_length_pairs` must split
  its pairs into query blocks, offset them and count every prefix row.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import RetrievalEngine, create_retriever
from repro.core.bucket import Bucket
from repro.core.kernels import gather_matvec, screen_bound, use_kernel
from repro.core.lemp import Lemp
from repro.core.retrievers.length import (BLOCK_ELEMENTS, LengthRetriever, block_survivors,
                                          score_length_pairs)
from repro.core.screening import ScreenTier
from repro.core.stats import RunStats
from repro.core.thresholds import local_threshold
from repro.core.vector_store import PreparedQueries, VectorStore
from tests.conftest import make_factors

RANK = 12
THETA = 0.5
K = 5
#: Verification slack of the Above-θ solver (scores >= θ - slack are kept).
SLACK = 1e-12
COUNTERS = ("candidates", "inner_products", "buckets_examined", "buckets_pruned")
#: Relative tolerance between two computations of one inner product.
RTOL = 1e-9


def near_boundary_problem(seed: int):
    """Queries plus probes whose scores sit within ULPs of θ and of k-th ties."""
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
                rows.append(((target / norm) * unit + off_axis(rng.uniform(0.1, 2.0))) * ulps)
        # K - 3 clear leaders, a ULP-above neighbour of a probe duplicated
        # five times, and ULP-below neighbours: the k-th score is a tie.
        rows.append(np.outer(3.0 + 0.1 * np.arange(K - 3), unit))
        tie = 2.5 * unit + off_axis(0.3)
        rows.append(np.repeat(tie[None], 4, axis=0))
        rows.append(tie * ulps[:6])
    probes = np.vstack(rows)
    return queries, probes[rng.permutation(len(probes))]


def reference_walk(prepared, buckets, selector, problem, parameter):
    """Per-pair solver walk: every candidate verified, nothing screened."""
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
        ids, best, theta_prime = np.empty(0, np.int64), np.empty(0), -np.inf
        query = prepared.directions[position]
        for bucket in buckets:
            theta_b = local_threshold(theta_prime, 1.0, bucket.max_length)
            if theta_b > 1.0:
                count("buckets_pruned", 1)
                break
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
            if best.size == k:
                theta_prime = float(best[-1])
        original = prepared.ids[position]
        indices[original, :ids.size] = ids
        scores[original, :ids.size] = best * prepared.norms[position]
    return (indices, scores), stats


def solve_both(spec, kernel, problem, queries, probes):
    """The engine's answer and counters, and the reference walk's, on one warm engine."""
    parameter = THETA if problem == "above_theta" else K
    with use_kernel(kernel):
        lemp = Lemp(algorithm=spec).fit(probes)
        getattr(lemp, problem)(queries, parameter)  # warm: tuning cached from here on
        prepared = PreparedQueries(queries)
        thetas = (np.full(prepared.size, THETA) if problem == "above_theta"
                  else lemp._surrogate_topk_thresholds(prepared, K))
        selector = lemp._build_selector(prepared, thetas, problem, float(parameter))
        buckets = lemp.buckets
        before = {name: getattr(lemp.stats, name) for name in COUNTERS}
        result = getattr(lemp, problem)(queries, parameter)
        counters = {name: getattr(lemp.stats, name) - before[name] for name in COUNTERS}
        expected, reference_stats = reference_walk(prepared, buckets, selector, problem,
                                                   parameter)
    arrays = ((result.query_ids, result.probe_ids, result.scores)
              if problem == "above_theta" else (result.indices, result.scores))
    return arrays, counters, expected, {name: getattr(reference_stats, name)
                                        for name in COUNTERS}


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI"])
def test_above_theta_near_threshold_matches_reference_and_naive(spec, kernel):
    queries, probes = near_boundary_problem(seed=5)
    arrays, counters, expected, reference_counters = solve_both(
        spec, kernel, "above_theta", queries, probes)
    for actual, wanted in zip(arrays, expected):
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes()
    assert counters == reference_counters
    scores = arrays[2]
    # The inputs really are adversarial: results within a few ULPs of the
    # threshold and of the slack-lowered threshold.
    assert np.any(np.abs(scores - THETA) < 1e-14)
    assert np.any(np.abs(scores - (THETA - SLACK)) < 1e-14)

    naive = create_retriever("naive").fit(probes).above_theta(queries, THETA)
    ours = {(q, p): s for q, p, s in zip(*(a.tolist() for a in arrays))}
    theirs = {(q, p): s for q, p, s in zip(naive.query_ids.tolist(), naive.probe_ids.tolist(),
                                           naive.scores.tolist())}
    for pair in ours.keys() ^ theirs.keys():
        assert abs(ours.get(pair, theirs.get(pair)) - THETA) <= RTOL
    for pair in ours.keys() & theirs.keys():
        assert ours[pair] == pytest.approx(theirs[pair], rel=RTOL)


@pytest.mark.parametrize("kernel", ["blocked", "einsum"])
@pytest.mark.parametrize("spec", ["L", "LI"])
def test_row_top_k_kth_ties_match_reference_and_naive(spec, kernel):
    queries, probes = near_boundary_problem(seed=6)
    arrays, counters, expected, reference_counters = solve_both(
        spec, kernel, "row_top_k", queries, probes)
    for actual, wanted in zip(arrays, expected):
        assert actual.dtype == wanted.dtype and actual.tobytes() == wanted.tobytes()
    assert counters == reference_counters
    indices, scores = arrays
    # The inputs really are adversarial: crafted rows tie at the k-th score.
    assert np.sum(scores[:, K - 1] == scores[:, K - 2]) >= 6

    naive = create_retriever("naive").fit(probes).row_top_k(queries, K)
    np.testing.assert_allclose(scores, naive.scores, rtol=RTOL)
    for row in range(queries.shape[0]):
        kth = scores[row, K - 1]
        tolerance = RTOL * max(1.0, abs(kth))
        clear = scores[row] > kth + tolerance
        naive_clear = naive.scores[row] > kth + tolerance
        assert set(indices[row][clear]) == set(naive.indices[row][naive_clear])
        true_scores = probes[indices[row]] @ queries[row]
        np.testing.assert_allclose(true_scores, scores[row], rtol=RTOL)


def test_screen_bound_covers_two_summation_orders():
    """Forward and reverse summation of rank-r unit-vector dot products
    never differ by more than the bound (it is far from tight)."""
    rng = np.random.default_rng(0)
    for rank in (1, 2, 12, 50, 300):
        x = rng.standard_normal((200, rank))
        y = rng.standard_normal((200, rank))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        forward = np.zeros(200)
        backward = np.zeros(200)
        for column in range(rank):
            forward += x[:, column] * y[:, column]
            backward += x[:, rank - 1 - column] * y[:, rank - 1 - column]
        assert np.max(np.abs(forward - backward)) <= screen_bound(rank)
    assert screen_bound(50) < 1e-13


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
    engine.workers = 2
    try:
        parallel = solve(queries, batch_size=250)
        assert engine.history[-1].workers == 2
    finally:
        engine.workers = 1
    answered = 0
    for row in (0, 3, 499, 998):
        alone = _row_answer(solve(queries[row:row + 1]), 0)
        answered += bool(alone[0])
        start = min(max(row - 3, 0), len(queries) - 7)
        assert _row_answer(solve(queries[start:start + 7]), row - start) == alone
        assert _row_answer(full, row) == alone
        assert _row_answer(parallel, row) == alone
    assert answered >= 3


# ------------------------------------------------------- the screen itself

SCREEN_RANK = 8


@pytest.fixture(scope="module")
def screen_store():
    return VectorStore(make_factors(2000, rank=SCREEN_RANK, length_cov=0.8, seed=31))


def reference_survivors(bucket, queries, cutoffs, thresholds, query_norms=None, screen=None):
    """:func:`block_survivors` by brute force: full mask, cut mask, 2-D ``np.nonzero``."""
    limit = int(cutoffs.max())
    if screen is None:
        upper = bucket.directions[:limit] @ queries.T + screen_bound(queries.shape[1])
    else:
        upper = screen.upper_cosine_block(bucket.start, limit, queries)
    lengths = bucket.lengths[:limit]
    scale = lengths[:, None] if query_norms is None else np.multiply.outer(lengths, query_norms)
    keep = (upper * scale >= thresholds) & (np.arange(limit)[:, None] < cutoffs)
    return np.nonzero(keep.T)


def assert_same_survivors(actual, expected):
    for got, wanted in zip(actual, expected):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, wanted)
    pairs, rows = actual
    order = np.lexsort((rows, pairs))
    assert np.array_equal(order, np.arange(pairs.size))


def screen_case(store, case, rng):
    """``(bucket, queries, cutoffs, thresholds, query_norms)`` for one named case."""
    bucket = Bucket(store, 100, 400, 1)
    pairs = 1 if case == "one_pair" else 37
    queries = PreparedQueries(make_factors(pairs, rank=SCREEN_RANK, length_cov=0.5,
                                           seed=int(rng.integers(1 << 30))))
    directions, norms = queries.directions, queries.norms
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
    thresholds = np.quantile(scores, 0.9, axis=0)
    if case == "minus_inf":
        thresholds[:] = -np.inf
    elif case == "plus_inf":
        thresholds[:] = np.inf
    return bucket, directions, cutoffs, thresholds, norms


SCREEN_CASES = ["mixed", "equal", "one_pair", "limit_one", "minus_inf", "plus_inf"]


@pytest.mark.parametrize("tier", [None, "f16"])
@pytest.mark.parametrize("with_norms", [True, False], ids=["above_theta", "row_top_k"])
@pytest.mark.parametrize("case", SCREEN_CASES)
def test_block_survivors_match_brute_force(screen_store, case, with_norms, tier):
    rng = np.random.default_rng(SCREEN_CASES.index(case))
    bucket, queries, cutoffs, thresholds, norms = screen_case(screen_store, case, rng)
    norms = norms if with_norms else None
    screen = None if tier is None else ScreenTier.build(screen_store.directions, tier)
    actual = block_survivors(bucket, queries, cutoffs, thresholds, norms, screen)
    assert_same_survivors(actual, reference_survivors(bucket, queries, cutoffs, thresholds,
                                                      norms, screen))
    pairs, rows = actual
    assert np.all(rows < cutoffs[pairs])
    if case == "minus_inf":
        assert pairs.size == cutoffs.sum()
    # The screen is conservative: every exact score reaching its threshold survives.
    kept = set(zip(pairs.tolist(), rows.tolist()))
    exact = bucket.directions @ queries.T * bucket.lengths[:, None]
    if norms is not None:
        exact *= norms
    for pair in range(cutoffs.size):
        for row in np.nonzero(exact[:cutoffs[pair], pair] >= thresholds[pair])[0].tolist():
            assert (pair, row) in kept


@pytest.mark.parametrize("with_norms", [True, False], ids=["above_theta", "row_top_k"])
def test_score_length_pairs_splits_into_query_blocks(screen_store, with_norms):
    bucket = Bucket(screen_store, 0, screen_store.size, 0)
    queries = PreparedQueries(make_factors(150, rank=SCREEN_RANK, length_cov=0.5, seed=32))
    positions = np.arange(queries.size)[::-1].copy()
    norms = queries.norms[positions] if with_norms else None
    scores = bucket.directions @ queries.directions[positions].T * bucket.lengths[:, None]
    if with_norms:
        scores *= norms
    quantiles = np.linspace(0.5, 0.999, positions.size)
    thetas = np.quantile(scores, quantiles, axis=0).diagonal().copy()
    thetas[:3] = -1.0  # non-positive θ: every row of the bucket is a candidate
    stats = RunStats()
    blocks = list(score_length_pairs(bucket, queries.directions, positions, norms, thetas,
                                     thetas, stats, None, gather_matvec))
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
    for (pairs, rows, cosines), (wanted_pairs, wanted_rows) in zip(blocks, expected):
        assert_same_survivors((pairs, rows), (wanted_pairs, wanted_rows))
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
