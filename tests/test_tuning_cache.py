"""Tests for the batch-persistent tuning cache (Section 4.4 tuning, reused).

The cache must be invisible in the results — warm and cold paths bit-identical
for the exact algorithms — while cutting the tuner runs of a chunked engine
call to exactly one, invalidating precisely the buckets touched by
``partial_fit`` / ``remove``, surviving ``save`` / ``load``, and reusing the
threshold-derived L2AP index only under the theta_b lower-bound rule.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro.core.lemp as lemp_module
import repro.core.vector_store as vector_store_module
from repro import Lemp, RetrievalEngine
from repro.core.bucket import Bucket
from repro.core.bucketize import bucketize
from repro.core.tuner import TuningResult
from repro.core.tuning_cache import BucketFingerprint, BucketTuning, TuningCache
from repro.core.vector_store import VectorStore, row_hashes

from tests.conftest import (
    assert_layout_invariants,
    brute_force_above,
    make_factors,
    pick_theta,
)


@pytest.fixture
def factors():
    """A (queries, probes) pair big enough for several buckets and batches."""
    queries = make_factors(400, rank=16, length_cov=1.0, seed=11)
    probes = make_factors(600, rank=16, length_cov=1.0, seed=12)
    return queries, probes


def spy_tuner(monkeypatch):
    """Wrap the mixed tuner with a call recorder; returns the record list."""
    calls = []
    original = lemp_module.tune_mixed

    def wrapper(buckets, *args, **kwargs):
        calls.append(len(buckets))
        return original(buckets, *args, **kwargs)

    monkeypatch.setattr(lemp_module, "tune_mixed", wrapper)
    return calls


class TestTuningCacheUnit:
    def make_buckets(self, seed=20, count=120):
        store = VectorStore(make_factors(count, rank=8, length_cov=1.0, seed=seed))
        return bucketize(store, min_bucket_size=10, max_bucket_size=40, cache_kib=None)

    def test_unit_norm_buckets_get_distinct_fingerprints(self):
        # All-equal lengths (cosine/unit-norm data) must not collide: the
        # digest covers the direction bytes, not just the length slice.
        rng = np.random.default_rng(5)
        vectors = rng.standard_normal((120, 8))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        store = VectorStore(vectors)
        buckets = bucketize(store, min_bucket_size=10, max_bucket_size=40, cache_kib=None)
        assert len(buckets) > 1
        fingerprints = {bucket.fingerprint() for bucket in buckets}
        assert len(fingerprints) == len(buckets)

    def test_lookup_on_empty_cache_is_all_stale(self):
        cache = TuningCache()
        buckets = self.make_buckets()
        cached, stale = cache.lookup(("row_top_k", 5.0, 0), buckets)
        assert cached == {}
        assert stale == buckets

    def test_store_then_lookup_covers_every_bucket(self):
        cache = TuningCache()
        buckets = self.make_buckets()
        key = ("row_top_k", 5.0, 0)
        tuning = TuningResult(
            switch_thresholds={0: 0.5}, per_bucket_phi={0: 2, 1: 4}
        )
        cache.store(key, buckets, tuning)
        cached, stale = cache.lookup(key, buckets)
        assert stale == []
        assert set(cached) == {bucket.index for bucket in buckets}
        assert cached[0] == BucketTuning(phi=2, switch=0.5)
        assert cached[1] == BucketTuning(phi=4, switch=None)
        # Buckets the tuner skipped still count as covered (empty entries).
        assert cached[len(buckets) - 1] == BucketTuning(phi=None, switch=None)

    def test_keys_are_isolated(self):
        cache = TuningCache()
        buckets = self.make_buckets()
        cache.store(("row_top_k", 5.0, 0), buckets, TuningResult())
        cached, stale = cache.lookup(("row_top_k", 7.0, 0), buckets)
        assert cached == {} and len(stale) == len(buckets)
        cached, stale = cache.lookup(("above_theta", 5.0, 0), buckets)
        assert cached == {} and len(stale) == len(buckets)

    def test_disabled_cache_stores_and_returns_nothing(self):
        cache = TuningCache(enabled=False)
        buckets = self.make_buckets()
        key = ("row_top_k", 5.0, 0)
        cache.store(key, buckets, TuningResult(per_bucket_phi={0: 3}))
        cached, stale = cache.lookup(key, buckets)
        assert cached == {} and stale == buckets and len(cache) == 0

    def test_prune_keeps_only_live_fingerprints(self):
        cache = TuningCache()
        buckets = self.make_buckets()
        key = ("above_theta", 1.0, 0)
        cache.store(key, buckets, TuningResult())
        survivors = buckets[: len(buckets) // 2]
        cache.discard({bucket.fingerprint() for bucket in buckets[len(buckets) // 2:]})
        cached, stale = cache.lookup(key, buckets)
        assert set(cached) == {bucket.index for bucket in survivors}
        assert stale == buckets[len(buckets) // 2:]

    def test_export_restore_roundtrip(self):
        cache = TuningCache()
        buckets = self.make_buckets()
        key = ("row_top_k", 10.0, 3)
        cache.store(key, buckets, TuningResult(per_bucket_phi={0: 5}, switch_thresholds={1: 0.7}))
        import json

        state = json.loads(json.dumps(cache.export_state()))  # via real JSON
        restored = TuningCache()
        restored.restore_state(state)
        cached, stale = restored.lookup(key, buckets)
        assert stale == []
        assert cached[0].phi == 5
        assert cached[1].switch == 0.7


class TestWarmBatchedEngineCalls:
    def test_chunked_call_tunes_once_and_hits_thereafter(self, monkeypatch, factors):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)

        engine.row_top_k(queries, 5, batch_size=100)  # 4 chunks
        first = engine.history[-1]
        assert first.num_batches == 4
        assert len(calls) == 1, "a chunked call must run the tuner exactly once"
        assert first.tuning_cache_misses == 1
        assert first.tuning_cache_hits == first.num_batches - 1

        engine.row_top_k(queries, 5, batch_size=100)
        second = engine.history[-1]
        assert len(calls) == 1, "a fully warm call must not tune at all"
        assert second.tuning_cache_misses == 0
        assert second.tuning_cache_hits == 4

    def test_above_theta_chunked_call_is_cached_too(self, monkeypatch, factors):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        theta = pick_theta(queries, probes, 500)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        result = engine.above_theta(queries, theta, batch_size=100)
        assert len(calls) == 1
        assert engine.history[-1].tuning_cache_hits >= 3
        assert result.to_set() == brute_force_above(queries, probes, theta)

    def test_different_parameters_tune_separately(self, monkeypatch, factors):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.row_top_k(queries, 5, batch_size=200)
        engine.row_top_k(queries, 7, batch_size=200)
        assert len(calls) == 2, "a new k is a new tuning artifact"
        engine.row_top_k(queries, 5, batch_size=200)
        engine.row_top_k(queries, 7, batch_size=200)
        assert len(calls) == 2, "both artifacts stay warm side by side"

    def test_warm_results_bit_identical_to_cache_disabled(self, factors):
        queries, probes = factors
        theta = pick_theta(queries, probes, 400)
        warm = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        cold = RetrievalEngine("lemp:LI", seed=0, tune_cache=False).fit(probes)

        for engine in (warm, warm, cold):  # second warm call runs fully cached
            engine.row_top_k(queries, 5, batch_size=100)
        top_warm = warm.row_top_k(queries, 5, batch_size=100)
        top_cold = cold.row_top_k(queries, 5, batch_size=100)
        assert np.array_equal(top_warm.indices, top_cold.indices)
        assert np.array_equal(top_warm.scores, top_cold.scores)

        above_warm = warm.above_theta(queries, theta, batch_size=100)
        above_cold = cold.above_theta(queries, theta, batch_size=100)
        assert np.array_equal(above_warm.query_ids, above_cold.query_ids)
        assert np.array_equal(above_warm.probe_ids, above_cold.probe_ids)
        assert np.array_equal(above_warm.scores, above_cold.scores)
        assert cold.history[-1].tuning_cache_hits == 0
        assert cold.history[-1].tuning_cache_misses == 0

    def test_counters_zero_for_cacheless_retrievers(self, factors):
        queries, probes = factors
        engine = RetrievalEngine("naive").fit(probes)
        engine.row_top_k(queries, 3, batch_size=200)
        call = engine.history[-1]
        assert call.tuning_cache_hits == 0
        assert call.tuning_cache_misses == 0
        assert engine.tuning_cache is None


class TestInvalidation:
    def lemp(self, probes, **kwargs):
        return Lemp(
            algorithm="LI", min_bucket_size=10, max_bucket_size=40, cache_kib=None,
            seed=0, **kwargs,
        ).fit(probes)

    def test_partial_fit_retunes_only_touched_buckets(self, monkeypatch, factors):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        retriever = self.lemp(probes)
        retriever.row_top_k(queries, 5)
        total = retriever.num_buckets
        assert calls == [total]

        # A probe shorter than everything indexed joins the last bucket;
        # only that bucket and the pieces it splits into are rebuilt, and
        # exactly those are re-tuned.
        shortest = float(retriever.store.lengths[-1])
        tiny = make_factors(1, rank=probes.shape[1], length_cov=0.1, seed=77)
        tiny *= 0.5 * shortest / np.linalg.norm(tiny)
        retriever.partial_fit(tiny)
        assert_layout_invariants(retriever)

        result = retriever.row_top_k(queries, 5)
        assert len(calls) == 2
        assert calls[1] == retriever.stats.buckets_rebuilt <= 2, \
            "only the changed buckets may be re-tuned"

        retriever.row_top_k(queries, 5)
        assert len(calls) == 2, "after re-tuning, the call is fully warm again"
        reference = self.lemp(np.vstack([probes, tiny])).row_top_k(queries, 5)
        assert np.array_equal(result.indices, reference.indices)
        assert np.array_equal(result.scores, reference.scores)

    def test_remove_invalidates_and_results_stay_exact(self, monkeypatch, factors):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        retriever = self.lemp(probes)
        retriever.row_top_k(queries, 5)
        retriever.remove(np.arange(25))
        assert_layout_invariants(retriever)
        result = retriever.row_top_k(queries, 5)
        assert len(calls) == 2, "removal must invalidate the touched buckets"
        assert 0 < calls[1] == retriever.stats.buckets_rebuilt < retriever.num_buckets

        fresh = self.lemp(np.delete(probes, np.arange(25), axis=0))
        reference = fresh.row_top_k(queries, 5)
        assert np.array_equal(result.indices, reference.indices)
        assert np.array_equal(result.scores, reference.scores)

    def test_save_load_keeps_cache_warm(self, monkeypatch, factors, tmp_path):
        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        expected = engine.row_top_k(queries, 5, batch_size=100)
        assert len(calls) == 1

        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert len(loaded.tuning_cache) == len(engine.tuning_cache) > 0

        result = loaded.row_top_k(queries, 5, batch_size=100)
        assert len(calls) == 1, "a reloaded index must reuse the persisted tuning"
        assert loaded.history[-1].tuning_cache_misses == 0
        assert loaded.history[-1].tuning_cache_hits == 4
        assert np.array_equal(result.indices, expected.indices)
        assert np.array_equal(result.scores, expected.scores)

    def test_save_load_after_updates_keeps_epoch_fingerprints(self, factors, tmp_path):
        queries, probes = factors
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.partial_fit(make_factors(30, rank=probes.shape[1], seed=78))
        engine.row_top_k(queries, 5, batch_size=100)
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        loaded.row_top_k(queries, 5, batch_size=100)
        assert loaded.history[-1].tuning_cache_misses == 0
        assert loaded.history[-1].tuning_cache_hits == 4


class TestRowHashFingerprints:
    def test_one_ulp_in_one_entry_changes_the_fingerprint(self):
        store = VectorStore(make_factors(40, rank=8, seed=3))
        reference = Bucket(store, 0, store.size, 0).fingerprint()
        for row, column in np.ndindex(store.directions.shape):
            for direction in (-np.inf, np.inf):
                directions = store.directions.copy()
                directions[row, column] = np.nextafter(directions[row, column], direction)
                changed = VectorStore.from_state(store.ids, store.lengths, directions)
                assert Bucket(changed, 0, changed.size, 0).fingerprint() != reference

    def test_mutations_hash_only_the_new_rows(self, monkeypatch, factors):
        queries, probes = factors
        retriever = Lemp(algorithm="LI", seed=0).fit(probes)
        retriever.row_top_k(queries, 5)  # fingerprints build the row hashes
        hashed = []

        def counting(directions):
            hashed.append(len(directions))
            return row_hashes(directions)

        monkeypatch.setattr(vector_store_module, "row_hashes", counting)
        retriever.partial_fit(make_factors(32, rank=probes.shape[1], seed=79))
        retriever.row_top_k(queries, 5)
        assert sum(hashed) <= 32
        hashed.clear()
        retriever.remove(np.arange(0, 600, 19))
        retriever.row_top_k(queries, 5)
        assert hashed == []
        # The patched hashes equal a fresh build on the mutated store.
        np.testing.assert_array_equal(
            retriever.store.content_hashes(), row_hashes(retriever.store.directions)
        )

    def test_digests_from_older_saves_cost_one_retune(self, monkeypatch, factors, tmp_path):
        # Before row hashes, the digest ran BLAKE2 over the direction bytes.
        # Entries saved with it load but never match: the first call after
        # the load re-tunes once, and the answers do not change.
        def legacy_fingerprint(bucket):
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(np.ascontiguousarray(bucket.lengths).tobytes())
            hasher.update(np.ascontiguousarray(bucket.directions).tobytes())
            return BucketFingerprint(bucket.epoch, bucket.size, hasher.hexdigest())

        queries, probes = factors
        calls = spy_tuner(monkeypatch)
        with monkeypatch.context() as legacy:
            legacy.setattr(Bucket, "fingerprint", legacy_fingerprint)
            engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
            expected = engine.row_top_k(queries, 5, batch_size=100)
            engine.save(tmp_path / "idx")
        assert len(calls) == 1

        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert len(loaded.tuning_cache) == len(engine.tuning_cache) > 0
        for misses in (1, 0):
            result = loaded.row_top_k(queries, 5, batch_size=100)
            assert loaded.history[-1].tuning_cache_misses == misses
            assert np.array_equal(result.indices, expected.indices)
            assert np.array_equal(result.scores, expected.scores)
        assert len(calls) == 2


class TestL2APLowerBoundRule:
    def single_bucket_lemp(self, probes):
        return Lemp(
            algorithm="L2AP", min_bucket_size=len(probes), max_bucket_size=None,
            cache_kib=None, seed=0,
        ).fit(probes)

    def test_higher_theta_reuses_lower_rebuilds(self, factors):
        queries, probes = factors
        retriever = self.single_bucket_lemp(probes)
        assert retriever.num_buckets == 1
        bucket = retriever.buckets[0]

        theta_mid = pick_theta(queries, probes, 200)
        theta_loose = pick_theta(queries, probes, 800)
        theta_tight = pick_theta(queries, probes, 50)

        first = retriever.above_theta(queries, theta_mid)
        index_mid = bucket.peek_index("l2ap")
        assert index_mid is not None
        assert first.to_set() == brute_force_above(queries, probes, theta_mid)

        # A larger theta means larger local thresholds: the cached reduction
        # still lower-bounds every query, so the index is reused as-is.
        second = retriever.above_theta(queries, theta_tight)
        assert bucket.peek_index("l2ap") is index_mid
        assert second.to_set() == brute_force_above(queries, probes, theta_tight)

        # A smaller theta breaks the lower bound: the index must be rebuilt
        # with the smaller base before it may serve these queries.
        third = retriever.above_theta(queries, theta_loose)
        index_loose = bucket.peek_index("l2ap")
        assert index_loose is not index_mid
        assert index_loose.base_threshold <= index_mid.base_threshold
        assert third.to_set() == brute_force_above(queries, probes, theta_loose)

        builds = retriever.tuning_cache.index_builds
        assert builds == 2, f"expected exactly two index builds, saw {builds}"
        assert retriever.tuning_cache.index_reuses > 0

    def test_disabled_cache_drops_index_every_call(self, factors):
        queries, probes = factors
        retriever = Lemp(
            algorithm="L2AP", min_bucket_size=len(probes), cache_kib=None,
            seed=0, tune_cache=False,
        ).fit(probes)
        theta = pick_theta(queries, probes, 200)
        retriever.above_theta(queries, theta)
        first = retriever.buckets[0].peek_index("l2ap")
        retriever.above_theta(queries, theta)
        assert retriever.buckets[0].peek_index("l2ap") is not first

    def test_blsh_stays_within_false_negative_budget_across_calls(self, factors):
        queries, probes = factors
        retriever = Lemp(algorithm="BLSH", seed=1).fit(probes)
        for count in (200, 400, 800):  # decreasing theta ratchets the base down
            theta = pick_theta(queries, probes, count)
            result = retriever.above_theta(queries, theta)
            expected = brute_force_above(queries, probes, theta)
            found = result.to_set()
            assert found <= expected, "verification is exact; no false positives"
            assert len(found) >= 0.9 * len(expected)


class TestGetParamsRoundTrip:
    def test_tune_cache_flag_round_trips(self, factors):
        _, probes = factors
        retriever = Lemp(algorithm="LI", tune_cache=False)
        assert retriever.get_params()["tune_cache"] is False
        clone = Lemp(**retriever.get_params())
        assert clone.tuning_cache.enabled is False
        assert Lemp().get_params()["tune_cache"] is True
