"""Mutation-local index layout under seeded churn.

``Lemp.partial_fit`` / ``remove`` write inside the spare rows of the changed
buckets' slices, re-cut only those buckets, and re-pack the store when a
slice runs out of room, so the layout may differ from a fresh fit's.  These
tests replay seeded write sequences and check after every step what may not
differ:

* the layout invariants (:func:`tests.conftest.assert_layout_invariants`),
  and the live rows, in store order, equal to a fresh fit's store;
* Row-Top-k byte-identical to a fresh fit and equal to the naive oracle;
* Above-θ with the same pairs and score bits as a fresh fit (compared
  sorted) and the same pairs as the brute-force oracle;
* two engines replaying the sequence independently agree on the cuts and
  on every integer counter;
* a saved and reloaded index answers byte for byte, Above-θ order included.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine
from repro.baselines import NaiveRetriever
from repro.core.bucketize import SLACK_FRACTION
from repro.core.stats import RunStats
from repro.core.vector_store import renumber_ids, row_hashes
from repro.datasets.openie import IE_SVD_PROBE_COV
from repro.datasets.synthetic import synthetic_factors
from repro.eval.recall import theta_for_result_count
from tests.conftest import assert_layout_invariants, brute_force_above, make_factors, pick_theta

RANK = 8
K = 5

#: Small buckets, so a sequence splits buckets and exhausts their slices;
#: and the default (cache-sized) buckets.
LAYOUTS = {
    "small": dict(min_bucket_size=4, max_bucket_size=16, cache_kib=None),
    "default": dict(),
}

INTEGER_COUNTERS = [field.name for field in dataclasses.fields(RunStats)
                    if field.type in ("int", int)]


def churn_plan(seed: int, probes: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """A seeded write sequence covering the layout's edge cases."""
    rng = np.random.default_rng(seed)
    current = probes
    plan = []

    def insert(rows):
        nonlocal current
        plan.append(("partial_fit", rows))
        current = np.vstack([current, rows])

    def remove(ids):
        nonlocal current
        plan.append(("remove", np.asarray(ids)))
        current = np.delete(current, ids, axis=0)

    def random_rows(count):
        return make_factors(count, rank=RANK, length_cov=1.0, seed=rng)

    lengths = np.linalg.norm(current, axis=1)
    longest = random_rows(2)
    insert(longest * (3.0 * lengths.max() / np.linalg.norm(longest, axis=1))[:, None])
    shortest = random_rows(2)
    insert(shortest * (0.01 * lengths.min() / np.linalg.norm(shortest, axis=1))[:, None])
    # Sign flips keep a row's length bit for bit: equal-length ties.
    picked = rng.choice(current.shape[0], 3, replace=False)
    insert(current[picked] * rng.choice([-1.0, 1.0], size=(3, RANK)))
    insert(np.zeros((2, RANK)))
    remove(rng.choice(current.shape[0], 20, replace=False))
    # Forty rows of nearly one length all land in one bucket: a split, then
    # a slice without room, then a re-pack.
    flood = random_rows(40)
    target = float(np.median(np.linalg.norm(current, axis=1)))
    scale = target * (1.0 + 1e-6 * rng.random(40)) / np.linalg.norm(flood, axis=1)
    insert(flood * scale[:, None])
    insert(random_rows(10))
    remove(rng.choice(current.shape[0], 10, replace=False))
    remove(np.arange(current.shape[0]))
    insert(random_rows(30))
    remove(rng.choice(current.shape[0], 5, replace=False))
    insert(random_rows(5))
    return plan


def assert_gap_rows_zero(store):
    """Gap rows are zero in every row-aligned array, and the row hashes match the buffer."""
    gaps = store.ids < 0
    assert not store.lengths[gaps].any() and not store.directions[gaps].any()
    assert np.array_equal(store.content_hashes(), row_hashes(store.directions))


def assert_screen_buffer(lemp):
    """Each bucket's slice of the f32 screen buffer holds the per-bucket formula's bits
    once filled, and every other row is zero."""
    store = lemp.store
    expected = np.zeros((store.capacity, store.rank), dtype=np.float32)
    for bucket in lemp.buckets:
        bucket.fill_screen()
        exponent = int(np.frexp(bucket.max_length)[1])
        expected[bucket.start:bucket.end] = (bucket.directions
                                             * np.ldexp(bucket.lengths, -exponent)[:, None])
        rows, slice_exponent = bucket.screen_slice()
        assert slice_exponent == exponent
    assert store.screen_rows.tobytes() == expected.tobytes()


def perfbench_plan(seed: int, rounds: int):
    """Rounds of a 32-row partial_fit and a 32-row remove on an ie-svd-shaped index."""
    rng = np.random.default_rng([seed, 0xC4A7])
    plan = []
    for _ in range(rounds):
        plan.append(("partial_fit", synthetic_factors(32, RANK, length_cov=IE_SVD_PROBE_COV,
                                                      seed=rng)))
        plan.append(("remove", rng.choice(3000, 32, replace=False)))
    return plan


@pytest.mark.parametrize("plan", ["churn-small", "churn-default", "perfbench"])
def test_gap_rows_and_screen_buffer_after_writes(plan, tmp_path):
    """Writes zero the rows they vacate, a re-pack starts a zeroed buffer, and each
    bucket refills its slice: after fit, every write, a re-pack and a load."""
    if plan == "perfbench":
        probes = synthetic_factors(3000, RANK, length_cov=IE_SVD_PROBE_COV, seed=2)
        lemp = Lemp(algorithm="LI", seed=0).fit(probes)
        steps = perfbench_plan(2, 2)
    else:
        probes = make_factors(200, rank=RANK, length_cov=1.0, seed=32)
        lemp = Lemp(algorithm="L", seed=0, **LAYOUTS[plan.split("-")[1]]).fit(probes)
        steps = churn_plan(3, probes)
    assert_screen_buffer(lemp)
    gaps = 0
    for kind, argument in steps:
        getattr(lemp, kind)(argument)
        assert_gap_rows_zero(lemp.store)
        # Every slice is filled before the next write, so a row the write
        # vacates held data.
        assert_screen_buffer(lemp)
        gaps = max(gaps, int(np.count_nonzero(lemp.store.ids < 0)))
    assert gaps > 0
    if plan == "churn-small":
        assert lemp.stats.store_repacks >= 2
    RetrievalEngine(lemp).save(tmp_path / "index")
    loaded = RetrievalEngine.load(tmp_path / "index", mmap_mode="r").retriever
    assert_screen_buffer(loaded)


def counters(lemp: Lemp) -> dict[str, int]:
    return {name: getattr(lemp.stats, name) for name in INTEGER_COUNTERS}


def assert_above_identical(left, right):
    for a, b in ((left.query_ids, right.query_ids), (left.probe_ids, right.probe_ids),
                 (left.scores, right.scores)):
        assert np.array_equal(a, b)


def assert_topk_identical(left, right):
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.scores, right.scores)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("algorithm", ["L", "LI", "LC", "TREE"])
def test_churn_keeps_invariants_and_results(algorithm, layout, tmp_path):
    options = dict(algorithm=algorithm, seed=0, **LAYOUTS[layout])
    queries = make_factors(25, rank=RANK, length_cov=1.0, seed=31)
    probes = make_factors(200, rank=RANK, length_cov=1.0, seed=32)
    theta = pick_theta(queries, probes, 120)
    first = Lemp(**options).fit(probes)
    second = Lemp(**options).fit(probes)
    current = probes
    repacks = splits = 0
    for step, (kind, argument) in enumerate(churn_plan(3, probes)):
        before = first.num_buckets
        for lemp in (first, second):
            getattr(lemp, kind)(argument)
        current = (np.vstack([current, argument]) if kind == "partial_fit"
                   else np.delete(current, argument, axis=0))
        assert_layout_invariants(first)
        repacks = first.stats.store_repacks
        splits += kind == "partial_fit" and first.num_buckets > before

        above = first.above_theta(queries, theta)
        top = first.row_top_k(queries, K)
        assert_above_identical(second.above_theta(queries, theta), above)
        assert_topk_identical(second.row_top_k(queries, K), top)
        assert [(b.start, b.end) for b in first.buckets] == \
            [(b.start, b.end) for b in second.buckets]
        assert counters(first) == counters(second)

        engine = RetrievalEngine(first)
        engine.save(tmp_path / f"step-{step}")
        loaded = RetrievalEngine.load(tmp_path / f"step-{step}")
        assert_above_identical(loaded.above_theta(queries, theta), above)
        assert_topk_identical(loaded.row_top_k(queries, K), top)

        if current.shape[0] == 0:
            assert first.num_buckets == 0 and above.num_results == 0
            assert np.all(top.indices == -1)
            continue
        fresh = Lemp(**options).fit(current)
        state = first.index_state()
        for name in ("ids", "lengths", "directions"):
            assert np.array_equal(state[name], getattr(fresh.store, name))
        assert_above_identical(above.sorted_by_score(),
                               fresh.above_theta(queries, theta).sorted_by_score())
        assert above.to_set() == brute_force_above(queries, current, theta)
        assert_topk_identical(top, fresh.row_top_k(queries, K))
        naive = NaiveRetriever().fit(current).row_top_k(queries, K)
        assert np.array_equal(top.indices, naive.indices)
        assert np.allclose(top.scores, naive.scores)
    if layout == "small":
        # The flood step must have split a bucket and re-packed the store
        # beyond the first write's re-pack.
        assert splits > 0 and repacks >= 2


def test_write_rebuilds_only_touched_buckets():
    """A 32-row write rebuilds the buckets it touches, plus their splits."""
    probes = synthetic_factors(5000, rank=RANK, length_cov=0.8, seed=5)
    lemp = Lemp(algorithm="LI", seed=0).fit(probes)
    lemp.remove([0])  # the first write re-packs the store
    assert lemp.stats.store_repacks == 1
    for kind, argument in (("partial_fit", synthetic_factors(32, rank=RANK, seed=6)),
                           ("remove", np.arange(100, 5000, 160))):
        old = {id(bucket): bucket for bucket in lemp.buckets}
        content = {id(bucket): bucket.lengths.copy() for bucket in lemp.buckets}
        rebuilt = lemp.stats.buckets_rebuilt
        getattr(lemp, kind)(argument)
        assert_layout_invariants(lemp)
        assert lemp.stats.store_repacks == 1
        new = [bucket for bucket in lemp.buckets if id(bucket) not in old]
        kept = [bucket for bucket in lemp.buckets if id(bucket) in old]
        assert lemp.stats.buckets_rebuilt - rebuilt == len(new)
        # Every kept bucket has its rows; every replaced bucket changed.
        for bucket in kept:
            assert np.array_equal(bucket.lengths, content[id(bucket)])
        replaced = len(old) - len(kept)
        assert 0 < replaced <= 32
        assert len(new) <= 2 * replaced
        assert len(new) < len(lemp.buckets) / 2


def test_slices_get_spare_rows_on_first_write():
    probes = make_factors(300, rank=RANK, length_cov=1.0, seed=9)
    lemp = Lemp(algorithm="L", seed=0, min_bucket_size=4, max_bucket_size=16,
                cache_kib=None).fit(probes)
    assert lemp.store.packed and lemp.store.capacity == 300
    lemp.partial_fit(make_factors(1, rank=RANK, seed=10))
    assert not lemp.store.packed
    assert lemp.stats.store_repacks == 1
    limits = [b.start for b in lemp.buckets[1:]] + [lemp.store.capacity]
    spare = np.asarray(limits) - [b.end for b in lemp.buckets]
    sizes = np.asarray([b.size for b in lemp.buckets])
    assert np.all(spare >= np.ceil(SLACK_FRACTION * sizes) - 1)


@pytest.mark.parametrize("removed", [[0], [9], list(range(10)), [0, 3, 4, 9], []])
def test_renumber_ids_matches_searchsorted(removed):
    rng = np.random.default_rng(len(removed))
    ids = rng.permutation(10)
    mask = np.zeros(10, dtype=bool)
    mask[removed] = True
    survivors = ids[~mask[ids]]
    expected = survivors - np.searchsorted(np.asarray(removed, dtype=np.intp), survivors)
    assert np.array_equal(renumber_ids(survivors, mask), expected)
    # Gap rows (id -1) stay gaps.
    assert np.array_equal(renumber_ids(np.array([-1, *survivors]), mask),
                          np.array([-1, *expected]))


def test_empty_writes_do_nothing():
    queries = make_factors(20, rank=RANK, seed=11)
    probes = make_factors(120, rank=RANK, length_cov=1.0, seed=12)
    lemp = Lemp(algorithm="LI", seed=0).fit(probes)
    lemp.row_top_k(queries, K)
    buckets = list(lemp.buckets)
    epoch = lemp._epoch
    cache = {key: dict(entries) for key, entries in lemp.tuning_cache._entries.items()}
    stats = counters(lemp)
    lemp.partial_fit(np.empty((0, RANK)))
    lemp.remove([])
    assert lemp._epoch == epoch
    assert all(a is b for a, b in zip(lemp.buckets, buckets))
    assert len(lemp.buckets) == len(buckets)
    assert lemp.tuning_cache._entries == cache
    assert counters(lemp) == stats
    assert lemp.store.packed


def test_mutation_counters_merge():
    merged = RunStats(buckets_rebuilt=3, store_repacks=1)
    merged.merge(RunStats(buckets_rebuilt=2, store_repacks=1))
    assert (merged.buckets_rebuilt, merged.store_repacks) == (5, 2)
    merged.reset()
    assert (merged.buckets_rebuilt, merged.store_repacks) == (0, 0)


def test_blsh_recall_after_churn():
    """LEMP-BLSH built by writes meets the recall pinned for a fitted index."""
    baseline = json.loads(
        (Path(__file__).parent / "data" / "blsh_recall_baseline.json").read_text()
    )
    config = baseline["config"]
    rank = config["rank"]
    probes = synthetic_factors(config["num_probes"], rank=rank,
                               length_cov=config["length_cov"], seed=config["probe_seed"])
    queries = synthetic_factors(config["num_queries"], rank=rank,
                                length_cov=config["length_cov"], seed=config["query_seed"])
    theta = theta_for_result_count(queries, probes, config["result_count"])
    half = probes.shape[0] // 2
    blsh = Lemp(algorithm="BLSH", seed=config["lemp_seed"]).fit(probes[:half])
    for chunk in np.array_split(probes[half:], 5):
        blsh.partial_fit(chunk)
        blsh.partial_fit(synthetic_factors(16, rank=rank, seed=len(chunk)))
        blsh.remove(np.arange(blsh.num_probes - 16, blsh.num_probes))
    assert_layout_invariants(blsh)
    product = queries @ probes.T
    exact = set(zip(*(arr.tolist() for arr in np.nonzero(product >= theta))))
    above_recall = len(blsh.above_theta(queries, theta).to_set() & exact) / len(exact)
    assert above_recall >= baseline["above_theta_recall"] - 0.01
    k = config["k"]
    top = blsh.row_top_k(queries, k)
    exact_rows = np.argsort(-product, axis=1, kind="stable")[:, :k]
    overlap = sum(len(set(top.indices[row].tolist()) & set(exact_rows[row].tolist()))
                  for row in range(queries.shape[0]))
    assert overlap / (queries.shape[0] * k) >= baseline["row_top_k_recall"] - 0.01


@pytest.mark.parametrize("mmap_mode", [None, "r"])
def test_first_write_on_a_reloaded_warm_index(mmap_mode, tmp_path):
    """A reloaded index's first write re-packs its (maybe read-only) arrays and
    fingerprints the buckets it replaces, which builds the row hashes in the
    middle of the write; untouched buckets keep their tuning entries."""
    queries = make_factors(30, rank=RANK, seed=41)
    probes = make_factors(400, rank=RANK, length_cov=1.0, seed=42)
    extra = make_factors(12, rank=RANK, length_cov=1.0, seed=43)
    engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
    engine.row_top_k(queries, K)
    engine.save(tmp_path / "idx")
    loaded = RetrievalEngine.load(tmp_path / "idx", mmap_mode=mmap_mode)
    entries = len(loaded.tuning_cache)
    loaded.partial_fit(extra).remove([0, 5])
    assert_layout_invariants(loaded.retriever)
    assert 0 < len(loaded.tuning_cache) < entries
    current = np.delete(np.vstack([probes, extra]), [0, 5], axis=0)
    fresh = Lemp(algorithm="LI", seed=0).fit(current)
    assert_topk_identical(loaded.row_top_k(queries, K), fresh.row_top_k(queries, K))


def test_remove_heavy_churn_repacks_and_recuts():
    """Removals that leave the buffer mostly gaps re-pack it, and the re-pack
    re-cuts buckets that have become too many for the rows left."""
    probes = synthetic_factors(3000, rank=RANK, length_cov=0.8, seed=7)
    lemp = Lemp(algorithm="L", seed=0, min_bucket_size=4, max_bucket_size=32,
                cache_kib=None).fit(probes)
    start = lemp.num_buckets
    rng = np.random.default_rng(8)
    current = probes
    while current.shape[0] > 600:
        ids = rng.choice(current.shape[0], 32, replace=False)
        lemp.remove(ids)
        current = np.delete(current, ids, axis=0)
    assert_layout_invariants(lemp)
    assert 2 * lemp.store.size >= lemp.store.capacity
    assert lemp.stats.store_repacks >= 2
    assert lemp.num_buckets < start
    fresh = Lemp(algorithm="L", seed=0, min_bucket_size=4, max_bucket_size=32,
                 cache_kib=None).fit(current)
    queries = make_factors(20, rank=RANK, seed=9)
    assert_topk_identical(lemp.row_top_k(queries, K), fresh.row_top_k(queries, K))
