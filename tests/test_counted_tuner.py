"""The counted-cost tuner: reproducible decisions, both routes, degenerate inputs.

The tuner prices each sampled (query, bucket) pair from counted work —
LENGTH prefix rows, scanned sorted-list entries, kept candidates — so its
decisions, and with them every :class:`~repro.core.stats.RunStats` counter,
are a pure function of the data, the thresholds and the seed.  This module
asserts that across independently fitted engines and across the process
boundary, that the cost model can still pick either route, and that
degenerate inputs get a defined decision and oracle-equal answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_retriever
from repro.core import lemp as lemp_module
from repro.core.bucket import Bucket
from repro.core.lemp import Lemp
from repro.core.retrievers import CoordRetriever, IncrRetriever, LengthRetriever
from repro.core.tuner import SWITCH_ALL_LENGTH, tune_mixed
from repro.core.vector_store import PreparedQueries, VectorStore
from repro.engine.facade import RetrievalEngine
from repro.serve import WorkerPool
from tests.conftest import make_factors, pick_theta

COUNTERS = ("num_queries", "results", "buckets_examined", "buckets_pruned",
            "candidates", "inner_products")

K = 6


def counters(stats):
    return {name: getattr(stats, name) for name in COUNTERS}


def assert_above_matches_oracle(result, oracle):
    assert result.to_set() == oracle.to_set()
    np.testing.assert_allclose(result.sorted_by_score().scores,
                               oracle.sorted_by_score().scores, rtol=1e-10, atol=1e-12)


def assert_top_k_matches_oracle(result, oracle):
    np.testing.assert_array_equal(result.indices, oracle.indices)
    np.testing.assert_allclose(result.scores, oracle.scores, rtol=1e-10, atol=1e-12)


def record_tuning(monkeypatch):
    """Record the decisions of every tuner run of LEMP; returns the record list."""
    decisions = []
    for name in ("tune_mixed", "tune_phi"):
        original = getattr(lemp_module, name)

        def recorder(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            decisions.append((result.per_bucket_phi, result.switch_thresholds))
            return result

        monkeypatch.setattr(lemp_module, name, recorder)
    return decisions


@pytest.fixture(scope="module")
def problem():
    probes = make_factors(600, rank=12, length_cov=0.9, seed=31)
    queries = make_factors(90, rank=12, length_cov=0.9, seed=32)
    return probes, queries, pick_theta(queries, probes, 300)


# ------------------------------------------------------------ reproducibility


@pytest.mark.parametrize("algorithm", ["LI", "I"])
@pytest.mark.parametrize("problem_name", ["above_theta", "row_top_k"])
def test_independent_engines_tune_and_count_alike(monkeypatch, problem, algorithm, problem_name):
    probes, queries, theta = problem
    decisions = record_tuning(monkeypatch)
    runs = []
    for _ in range(2):
        engine = RetrievalEngine(f"lemp:{algorithm}", seed=3).fit(probes)
        if problem_name == "above_theta":
            result = engine.above_theta(queries, theta, batch_size=40)
            result = (result.query_ids, result.probe_ids, result.scores)
        else:
            result = engine.row_top_k(queries, K, batch_size=40)
            result = (result.indices, result.scores)
        runs.append((result, counters(engine.stats)))
    # One tuner run per engine (the later chunks hit the tuning cache).
    assert len(decisions) == 2
    assert decisions[0] == decisions[1]
    assert any(decisions[0]), "the tuner decided nothing"
    (first, first_counters), (second, second_counters) = runs
    for left, right in zip(first, second):
        np.testing.assert_array_equal(left, right)
    assert first_counters == second_counters


@pytest.mark.parametrize("spec", ["lemp:LI", "lemp:I"])
def test_cold_index_on_worker_pool_counts_like_serial(tmp_path, problem, spec):
    """A saved index without tuning entries: every worker tunes for itself."""
    probes, queries, theta = problem
    path = tmp_path / "cold"
    RetrievalEngine(spec, seed=0).fit(probes).save(path)

    def workload(engine):
        # One chunk per call: a worker tunes on exactly the serial call's queries.
        rows = queries.shape[0]
        top = engine.row_top_k(queries, K, batch_size=rows)
        above = engine.above_theta(queries, theta, batch_size=rows)
        again = engine.row_top_k(queries, K, batch_size=rows)
        return top, above, again

    serial = RetrievalEngine.load(path)
    expected = workload(serial)
    with WorkerPool(path, workers=2) as pool:
        engine = RetrievalEngine.load(path, mmap_mode="r")
        engine.use_worker_pool(pool)
        observed = workload(engine)
        assert engine.history[-1].plan.backend == "processes"
    for left, right in ((expected[0], observed[0]), (expected[2], observed[2])):
        np.testing.assert_array_equal(left.indices, right.indices)
        np.testing.assert_array_equal(left.scores, right.scores)
    np.testing.assert_array_equal(expected[1].probe_ids, observed[1].probe_ids)
    np.testing.assert_array_equal(expected[1].scores, observed[1].scores)
    assert counters(engine.stats) == counters(serial.stats)


# ------------------------------------------------------------ both routes


def planted_problem(rows, rank, seed):
    """Unit-length probes and queries planted next to some of them (θ_b ≈ 1)."""
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((rows, rank))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    queries = probes[rng.choice(rows, 24, replace=False)] + 0.002 * rng.standard_normal((24, rank))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    return probes, queries


@pytest.mark.parametrize("rows, expect_coordinate", [(20000, True), (200, False)])
def test_cost_model_chooses_either_route(rows, expect_coordinate):
    """A long, high-rank bucket at θ_b ≈ 1 goes to INCR; a cache-sized one to LENGTH.

    LENGTH's f32 block screen streams the whole 20000 × 400 prefix once per
    13-query block, while INCR scans a few hundred sorted-list entries, so
    INCR must win there (on a 2-vCPU x86-64 host, one BLAS thread: 10 ms
    against 24 ms for this call; at 5000 rows the screen wins, 3.3 ms
    against 4.6 ms); on 200 rows no coordinate call is cheaper than the
    block product.
    """
    probes, queries = planted_problem(rows, rank=400, seed=rows)
    theta = 0.999
    retriever = Lemp(algorithm="LI", seed=0, cache_kib=None, max_bucket_size=None).fit(probes)
    assert retriever.num_buckets == 1
    prepared = PreparedQueries(queries)
    tuning = tune_mixed(retriever.buckets, prepared, theta, LengthRetriever(), IncrRetriever())
    switch = tuning.switch_thresholds[0]
    if expect_coordinate:
        # Every sampled pair has θ_b = θ / (‖q‖ · 1) ≈ 0.999 ≥ t_b: INCR runs.
        assert switch <= float(np.min(theta / prepared.norms))
        assert tuning.per_bucket_phi[0] in (1, 2, 3, 4, 5)
    else:
        assert switch == SWITCH_ALL_LENGTH
        assert tuning.per_bucket_phi == {}
        assert not retriever.buckets[0].sorted_lists_built

    result = retriever.above_theta(queries, theta)
    assert_above_matches_oracle(result, create_retriever("naive").fit(probes).above_theta(
        queries, theta))
    pairs = queries.shape[0] * rows
    if expect_coordinate:
        assert retriever.stats.candidates < pairs // 10
    else:
        assert retriever.stats.candidates == pairs


# ------------------------------------------------------------ degenerate inputs


def assert_defined(per_bucket_phi, switch_thresholds):
    """Every decision is a φ of the grid or a switch point in [0, 1.01]."""
    assert set(per_bucket_phi.values()) <= {1, 2, 3, 4, 5}
    for switch in switch_thresholds.values():
        assert 0.0 <= switch <= SWITCH_ALL_LENGTH


@pytest.mark.parametrize("algorithm", ["LI", "I"])
def test_degenerate_engines_match_oracle(monkeypatch, algorithm):
    decisions = record_tuning(monkeypatch)
    rng = np.random.default_rng(5)
    probes = make_factors(120, rank=6, seed=41)
    queries = make_factors(30, rank=6, seed=42)
    queries[::3] = 0.0  # zero-norm sample queries
    cases = [
        # (probes, queries, Lemp keyword arguments)
        (probes, queries, {}),
        (probes, queries, {"min_bucket_size": 1, "max_bucket_size": 1}),  # one-row buckets
        (make_factors(80, rank=1, seed=43), make_factors(20, rank=1, seed=44), {}),  # rank 1
        # Every score negative: Row-Top-k surrogate thresholds fall below zero.
        (np.abs(probes), -np.abs(rng.standard_normal((20, 6))), {}),
    ]
    naive = create_retriever("naive")
    for case_probes, case_queries, options in cases:
        retriever = Lemp(algorithm=algorithm, seed=0, **options).fit(case_probes)
        oracle = naive.fit(case_probes)
        for k in (K, case_probes.shape[0] + 5):  # k ≥ n as well
            assert_top_k_matches_oracle(retriever.row_top_k(case_queries, k),
                                        oracle.row_top_k(case_queries, k))
        theta = pick_theta(case_queries, case_probes, 40)
        if theta > 0.0:
            assert_above_matches_oracle(retriever.above_theta(case_queries, theta),
                                        oracle.above_theta(case_queries, theta))
        empty = np.empty((0, case_probes.shape[1]))
        assert retriever.row_top_k(empty, K).indices.shape == (0, K)
        assert retriever.above_theta(empty, 1.0).num_results == 0
    assert decisions
    for decision in decisions:
        assert_defined(*decision)


def test_tuner_degenerate_inputs_get_defined_decisions():
    store = VectorStore(make_factors(40, rank=4, seed=51))
    one_row = [Bucket(store, 0, 1, 0)]
    whole = [Bucket(store, 0, 40, 0)]
    queries = make_factors(10, rank=4, seed=52)
    queries[:5] = 0.0
    prepared = PreparedQueries(queries)
    for buckets in (one_row, whole):
        for thetas in (0.5, 0.0, -1.0, np.linspace(-1.0, 1.0, 10)):
            for coordinate in (IncrRetriever(), CoordRetriever()):
                tuning = tune_mixed(buckets, prepared, thetas, LengthRetriever(), coordinate)
                assert_defined(tuning.per_bucket_phi, tuning.switch_thresholds)
                # Tiny buckets: LENGTH undercuts every coordinate call.
                assert set(tuning.switch_thresholds.values()) <= {SWITCH_ALL_LENGTH}
    empty = PreparedQueries(np.empty((0, 4)))
    tuning = tune_mixed(whole, empty, np.empty(0), LengthRetriever(), IncrRetriever())
    assert tuning.switch_thresholds == {} and tuning.per_bucket_phi == {}


@pytest.mark.parametrize("retriever", [CoordRetriever(), IncrRetriever()], ids=["COORD", "INCR"])
def test_focus_counts_mirror_retrieve(retriever):
    """One nested scan prices every φ: kept counts equal ``retrieve``'s, branch by branch."""
    store = VectorStore(make_factors(300, rank=8, length_cov=0.6, seed=61))
    bucket = Bucket(store, 0, 300, 0)
    queries = PreparedQueries(make_factors(12, rank=8, seed=62))
    phis = [1, 2, 3, 5, 9]
    for row in range(queries.size):
        direction, norm = queries.directions[row], float(queries.norms[row])
        for theta, theta_b in ((0.4, 0.3), (0.9, 0.8), (0.9, 0.999), (0.4, 0.0), (-0.2, -0.1),
                               (0.0, 0.5), (0.4, -np.inf)):
            for query_norm in (norm, 0.0):
                scanned, kept = retriever.focus_counts(bucket, direction, query_norm, theta,
                                                       theta_b, phis)
                for slot, phi in enumerate(phis):
                    candidates = retriever.retrieve(bucket, direction, query_norm, theta, theta_b,
                                                    phi)
                    assert kept[slot] == candidates.size
                if retriever.unpruned(query_norm, theta, theta_b):
                    # Every row, no scan: e.g. INCR at θ_b ≤ 0, θ ≤ 0 or ‖q‖ = 0.
                    assert scanned.tolist() == [0] * len(phis)
                    assert kept.tolist() == [bucket.size] * len(phis)
                else:
                    assert np.all(np.diff(scanned) >= 0)
