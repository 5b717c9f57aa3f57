"""Every LEMP variant answers the same through every engine lifecycle.

The exact engine promises that how an index came to be does not change its
answers: an index grown by ``partial_fit`` / ``remove``, saved and loaded
(eagerly or memory-mapped), written after a mapped load, emptied and
refilled, refitted, or served in chunks answers as a fresh ``fit`` of the
same probe rows.  This module pins that for every LEMP algorithm (the
approximate BLSH included) under both verification kernels:

* Row-Top-k byte-identical to the fresh fit (indices and score bits), and
  for chunked calls to the fresh fit's one-chunk call too;
* Above-θ with the same pairs and score bits as the fresh fit (compared
  sorted, since writes may re-cut buckets and so change the walk order),
  and, where the layout is unchanged (reloads, chunked calls), in the same
  order too;
* exact variants equal to the brute-force oracle as a set;
* two independently fitted engines agree on bytes and on every integer
  counter; the two kernels agree on pairs, order and counters, and on
  scores up to rounding.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine
from repro.baselines import NaiveRetriever
from repro.core.kernels import KERNELS, use_kernel
from repro.core.stats import RunStats
from tests.conftest import assert_layout_invariants, brute_force_above, make_factors, pick_theta

K = 5

ALGORITHMS = ("L", "C", "I", "TA", "TREE", "L2AP", "LC", "LI", "BLSH")

#: States whose bucket layout is the fresh fit's, so Above-θ keeps its order.
SAME_LAYOUT = ("reloaded_eager", "reloaded_mmap", "chunked")

STATES = ("updated", "reloaded_eager", "reloaded_mmap", "updated_reloaded_mmap",
          "written_after_mmap_load", "emptied_and_refilled", "refitted", "chunked")

INTEGER_COUNTERS = [field.name for field in dataclasses.fields(RunStats)
                    if field.type in ("int", int)]

REMOVED = np.arange(3, 23)


@pytest.fixture(scope="module")
def problem():
    queries = make_factors(40, rank=10, length_cov=1.0, seed=61)
    probes = make_factors(240, rank=10, length_cov=1.0, seed=62)
    extra = make_factors(30, rank=10, length_cov=1.0, seed=63)
    theta = pick_theta(queries, probes, 300)
    return queries, probes, extra, theta


def counters(retriever):
    return {name: getattr(retriever.stats, name) for name in INTEGER_COUNTERS}


def assert_above_identical(left, right):
    assert np.array_equal(left.query_ids, right.query_ids)
    assert np.array_equal(left.probe_ids, right.probe_ids)
    assert left.scores.tobytes() == right.scores.tobytes()


def assert_topk_identical(left, right):
    assert np.array_equal(left.indices, right.indices)
    assert left.scores.tobytes() == right.scores.tobytes()


def reload(engine, path, mmap_mode):
    engine.save(path)
    return RetrievalEngine.load(path, mmap_mode=mmap_mode)


def engine_in_state(algorithm, state, problem, tmp_path):
    """``(engine, probe rows it holds, call kwargs)`` for one lifecycle state."""
    _, probes, extra, _ = problem
    engine = RetrievalEngine(Lemp(algorithm=algorithm, seed=0))
    updated = np.delete(np.vstack([probes, extra]), REMOVED, axis=0)
    kwargs = {}
    if state in ("updated", "updated_reloaded_mmap"):
        engine.fit(probes).partial_fit(extra).remove(REMOVED)
        current = updated
        if state == "updated_reloaded_mmap":
            engine = reload(engine, tmp_path / "index", "r")
    elif state in ("reloaded_eager", "reloaded_mmap"):
        engine.fit(probes)
        engine = reload(engine, tmp_path / "index", "r" if state == "reloaded_mmap" else None)
        current = probes
    elif state == "written_after_mmap_load":
        engine.fit(probes)
        engine = reload(engine, tmp_path / "index", "r")
        engine.partial_fit(extra).remove(REMOVED)
        current = updated
    elif state == "emptied_and_refilled":
        engine.fit(extra).remove(np.arange(extra.shape[0]))
        assert engine.retriever.num_buckets == 0
        engine.partial_fit(probes)
        current = probes
    elif state == "refitted":
        engine.fit(extra).partial_fit(probes[:50])
        engine.fit(probes)
        current = probes
    else:
        assert state == "chunked"
        # Four chunks of ten rows; Above-θ output follows chunk order.
        engine.fit(probes)
        kwargs = {"batch_size": 10}
        current = probes
    return engine, current, kwargs


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("state", STATES)
def test_lifecycle_answers_as_a_fresh_fit(problem, state, algorithm, kernel, tmp_path):
    queries, _, _, theta = problem
    with use_kernel(kernel):
        engine, current, kwargs = engine_in_state(algorithm, state, problem, tmp_path)
        if state == "chunked":
            assert engine.explain(queries, k=K, batch_size=10).num_batches == 4
        else:
            assert_layout_invariants(engine.retriever)
        above = engine.above_theta(queries, theta, **kwargs)
        top = engine.row_top_k(queries, K, **kwargs)
        # Serially, over the same chunks as the engine under test.
        fresh = RetrievalEngine(Lemp(algorithm=algorithm, seed=0)).fit(current)
        fresh_above = fresh.above_theta(queries, theta, **kwargs)
        fresh_top = fresh.row_top_k(queries, K, **kwargs)
        one_chunk_top = fresh.row_top_k(queries, K)

    assert_topk_identical(top, fresh_top)
    assert_topk_identical(top, one_chunk_top)
    if state in SAME_LAYOUT:
        assert_above_identical(above, fresh_above)
    else:
        assert_above_identical(above.sorted_by_score(), fresh_above.sorted_by_score())
    assert above.num_results > 0
    if algorithm != "BLSH":
        assert above.to_set() == brute_force_above(queries, current, theta)
        naive = NaiveRetriever().fit(current).row_top_k(queries, K)
        assert np.array_equal(top.indices, naive.indices)
        assert np.allclose(top.scores, naive.scores)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_independent_engines_agree_on_bytes_and_counters(problem, algorithm, kernel):
    """Tuning prices counted work, so counters are reproducible run to run."""
    queries, probes, _, theta = problem
    runs = []
    with use_kernel(kernel):
        for _ in range(2):
            lemp = Lemp(algorithm=algorithm, seed=0).fit(probes)
            cold = (lemp.above_theta(queries, theta), lemp.row_top_k(queries, K),
                    counters(lemp))
            lemp.stats.reset()
            warm = (lemp.above_theta(queries, theta), lemp.row_top_k(queries, K),
                    counters(lemp))
            runs.append((cold, warm))
    for first, second in zip(*runs):
        assert_above_identical(first[0], second[0])
        assert_topk_identical(first[1], second[1])
        assert first[2] == second[2]
    (cold, warm), _ = runs
    # A warm call answers as the cold one that tuned it.
    assert_above_identical(cold[0], warm[0])
    assert_topk_identical(cold[1], warm[1])
    assert warm[2]["inner_products"] > 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernels_agree_on_answers_and_counters(problem, algorithm):
    """Pruning never reads a verified score's last bits, so the two kernels keep
    the same pairs, in the same order, with the same counters; their reductions
    differ in rounding only."""
    queries, probes, _, theta = problem
    runs = {}
    for kernel in KERNELS:
        with use_kernel(kernel):
            lemp = Lemp(algorithm=algorithm, seed=0).fit(probes)
            runs[kernel] = (lemp.above_theta(queries, theta), lemp.row_top_k(queries, K),
                            counters(lemp))
    (above, top, stats), (other_above, other_top, other_stats) = runs.values()
    assert np.array_equal(above.query_ids, other_above.query_ids)
    assert np.array_equal(above.probe_ids, other_above.probe_ids)
    np.testing.assert_allclose(above.scores, other_above.scores, rtol=1e-12)
    assert np.array_equal(top.indices, other_top.indices)
    np.testing.assert_allclose(top.scores, other_top.scores, rtol=1e-12)
    assert stats == other_stats
