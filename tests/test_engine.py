"""Tests for the engine layer: registry, facade, persistence, and updates."""

from __future__ import annotations

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro import Lemp, RetrievalEngine, create_retriever
from repro.baselines import NaiveRetriever
from repro.core.results import AboveThetaResult, TopKResult
from repro.engine import available_specs, normalize_spec, spec_is_exact
from repro.engine.persistence import FORMAT_VERSION
from repro.engine.registry import spec_for_instance
from repro.exceptions import (
    NotPreparedError,
    PersistenceError,
    UnknownAlgorithmError,
    UnsupportedOperationError,
)
from tests.conftest import (
    assert_layout_invariants,
    brute_force_above,
    make_factors,
    pick_theta,
)

#: Specs with a full Retriever interface (fit / above_theta / row_top_k).
FULL_SPECS = [spec for spec in available_specs() if spec != "clustered"]

#: Exact specs, expected to agree with the naive baseline bit for bit.
EXACT_SPECS = [spec for spec in FULL_SPECS if spec_is_exact(spec)]


@pytest.fixture(scope="module")
def workload():
    queries = make_factors(60, rank=10, length_cov=1.0, seed=11)
    probes = make_factors(150, rank=10, length_cov=1.0, seed=12)
    naive = NaiveRetriever().fit(probes)
    return queries, probes, naive


class TestRegistry:
    def test_all_specs_construct(self):
        for spec in available_specs():
            retriever = create_retriever(spec, seed=0)
            assert retriever is not None, spec

    def test_covers_all_lemp_algorithms_and_baselines(self):
        specs = set(available_specs())
        assert {f"lemp:{a}" for a in
                ("L", "C", "I", "TA", "TREE", "L2AP", "BLSH", "LC", "LI")} <= specs
        assert {"naive", "ta:blocked", "ta:heap",
                "tree:cover", "tree:ball", "dtree:cover", "dtree:ball"} <= specs

    def test_variant_routing(self):
        assert create_retriever("lemp:LC").algorithm == "LC"
        assert create_retriever("tree:ball").tree_type == "ball"
        assert create_retriever("ta:heap").strategy == "heap"

    def test_default_variants(self):
        assert normalize_spec("lemp") == "lemp:LI"
        assert normalize_spec("tree") == "tree:cover"
        assert normalize_spec("ta") == "ta:blocked"

    def test_paper_name_aliases(self):
        assert normalize_spec("LEMP-LI") == "lemp:LI"
        assert normalize_spec("Naive") == "naive"
        assert normalize_spec("D-Tree") == "dtree:cover"
        assert create_retriever("LEMP-L2AP").name == "LEMP-L2AP"

    def test_case_insensitive(self):
        assert normalize_spec("LEMP:li") == "lemp:LI"
        assert normalize_spec("TREE:BALL") == "tree:ball"

    def test_unknown_spec_rejected(self):
        with pytest.raises(UnknownAlgorithmError):
            create_retriever("faiss")
        with pytest.raises(UnknownAlgorithmError):
            create_retriever("lemp:XYZ")
        with pytest.raises(UnknownAlgorithmError):
            create_retriever("naive:fast")

    def test_seed_only_forwarded_where_accepted(self):
        assert create_retriever("naive", seed=7).block_size == 1024
        assert create_retriever("lemp:LI", seed=7).seed == 7

    def test_spec_for_instance(self):
        assert spec_for_instance(Lemp(algorithm="LC")) == "lemp:LC"
        assert spec_for_instance(NaiveRetriever()) == "naive"
        assert spec_for_instance(object()) is None

    @pytest.mark.parametrize("spec", EXACT_SPECS)
    def test_every_exact_spec_agrees_with_naive(self, spec, workload):
        queries, probes, naive = workload
        retriever = create_retriever(spec, seed=0).fit(probes)
        theta = pick_theta(queries, probes, 120)
        assert retriever.above_theta(queries, theta).to_set() == \
            naive.above_theta(queries, theta).to_set(), spec
        top = retriever.row_top_k(queries, 5)
        ref = naive.row_top_k(queries, 5)
        assert np.allclose(np.sort(top.scores, axis=1), np.sort(ref.scores, axis=1)), spec


class TestEngineBatching:
    def test_merged_equals_unbatched(self, workload):
        queries, probes, naive = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        theta = pick_theta(queries, probes, 100)
        merged = engine.above_theta(queries, theta, batch_size=13)
        assert merged.to_set() == naive.above_theta(queries, theta).to_set()
        top = engine.row_top_k(queries, 4, batch_size=7)
        ref = naive.row_top_k(queries, 4)
        assert np.allclose(top.scores, ref.scores)
        assert top.num_queries == queries.shape[0]

    def test_streaming_batches_partition_queries(self, workload):
        queries, probes, _ = workload
        engine = RetrievalEngine("naive").fit(probes)
        offsets = []
        total = 0
        for offset, part in engine.iter_row_top_k(queries, 3, batch_size=25):
            offsets.append(offset)
            total += part.num_queries
        assert offsets == [0, 25, 50]
        assert total == queries.shape[0]

    def test_fluent_builder(self, workload):
        queries, probes, naive = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        theta = pick_theta(queries, probes, 80)
        top = engine.query(queries).batch_size(11).top_k(6)
        assert np.allclose(top.scores, naive.row_top_k(queries, 6).scores)
        above = engine.query(queries).above(theta)
        assert above.to_set() == naive.above_theta(queries, theta).to_set()
        batches = list(engine.query(queries).batch_size(20).above_batches(theta))
        assert [offset for offset, _ in batches] == [0, 20, 40]

    def test_call_history_recorded(self, workload):
        queries, probes, _ = workload
        engine = RetrievalEngine("naive").fit(probes)
        engine.row_top_k(queries, 2, batch_size=30)
        engine.above_theta(queries, 0.5, batch_size=60)
        assert [call.problem for call in engine.history] == ["row_top_k", "above_theta"]
        assert engine.history[0].num_batches == 2
        assert engine.history[0].num_queries == queries.shape[0]
        assert engine.history[1].seconds >= 0.0

    def test_zero_queries(self, workload):
        _, probes, _ = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        empty = np.empty((0, probes.shape[1]))
        above = engine.above_theta(empty, 1.0, batch_size=8)
        assert above.num_results == 0
        assert above.sorted_by_score().to_set() == set()
        top = engine.row_top_k(empty, 5, batch_size=8)
        assert top.indices.shape == (0, 5)
        assert top.row_sets() == []

    def test_engine_from_instance(self, workload):
        queries, probes, naive = workload
        engine = RetrievalEngine(Lemp(algorithm="LC", seed=0)).fit(probes)
        assert engine.spec == "lemp:LC"
        top = engine.row_top_k(queries, 3)
        assert np.allclose(top.scores, naive.row_top_k(queries, 3).scores)

    def test_clustered_has_no_above_theta(self, workload):
        queries, probes, _ = workload
        engine = RetrievalEngine("clustered", seed=0).fit(probes)
        with pytest.raises(UnsupportedOperationError):
            engine.above_theta(queries, 1.0)
        # The same documented error surfaces through the retriever directly
        # (e.g. from the CLI's `above --algorithm clustered` path).
        with pytest.raises(UnsupportedOperationError):
            engine.retriever.above_theta(queries, 1.0)
        with pytest.raises(UnsupportedOperationError):
            engine.partial_fit(probes[:2])
        with pytest.raises(UnsupportedOperationError):
            engine.remove([0])


def test_dropped_engine_is_freed_without_the_cycle_collector(workload):
    """An engine holds no reference cycle: it dies with its last reference."""
    queries, probes, _ = workload
    engine = RetrievalEngine("lemp:LI", seed=0, workers=2).fit(probes)
    engine.row_top_k(queries, 3, batch_size=20)
    engine.above_theta(queries, 0.5)
    alive = weakref.ref(engine)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del engine
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


class TestPersistence:
    @pytest.mark.parametrize("spec", FULL_SPECS)
    def test_every_spec_round_trips(self, spec, workload, tmp_path):
        queries, probes, _ = workload
        engine = RetrievalEngine(spec, seed=0).fit(probes)
        expected = engine.row_top_k(queries, 4)
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert loaded.spec == normalize_spec(spec)
        actual = loaded.row_top_k(queries, 4)
        assert np.array_equal(expected.indices, actual.indices), spec
        assert np.array_equal(expected.scores, actual.scores), spec

    def test_lemp_load_skips_preprocessing(self, workload, tmp_path):
        _, probes, _ = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        # The store and bucket layout must be restored verbatim, not refit.
        assert np.array_equal(loaded.retriever.store.lengths, engine.retriever.store.lengths)
        assert [(b.start, b.end) for b in loaded.retriever.buckets] == \
            [(b.start, b.end) for b in engine.retriever.buckets]
        assert loaded.retriever.stats.preprocessing_seconds == 0.0

    def test_save_preserves_constructor_kwargs(self, workload, tmp_path):
        _, probes, _ = workload
        engine = RetrievalEngine("lemp:LC", seed=3, phi=4, min_bucket_size=20).fit(probes)
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert loaded.retriever.phi == 4
        assert loaded.retriever.min_bucket_size == 20
        assert loaded.retriever.seed == 3

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotPreparedError):
            RetrievalEngine("naive").save(tmp_path / "idx")

    def test_load_missing_directory_rejected(self, tmp_path):
        with pytest.raises(PersistenceError):
            RetrievalEngine.load(tmp_path / "nothing-here")

    def test_load_corrupt_meta_rejected(self, workload, tmp_path):
        _, probes, _ = workload
        engine = RetrievalEngine("naive").fit(probes)
        engine.save(tmp_path / "idx")
        (tmp_path / "idx" / "meta.json").write_text("{not json")
        with pytest.raises(PersistenceError):
            RetrievalEngine.load(tmp_path / "idx")

    def test_state_index_does_not_duplicate_probes(self, workload, tmp_path):
        _, probes, _ = workload
        RetrievalEngine("lemp:LI", seed=0).fit(probes).save(tmp_path / "lemp")
        with np.load(tmp_path / "lemp" / "index.npz") as data:
            assert "probes" not in data.files
            assert "state.directions" in data.files
        RetrievalEngine("naive").fit(probes).save(tmp_path / "naive")
        with np.load(tmp_path / "naive" / "index.npz") as data:
            assert "probes" in data.files

    def test_instance_wrapped_fitted_lemp_round_trips(self, workload, tmp_path):
        queries, probes, _ = workload
        lemp = Lemp(algorithm="LI", seed=0).fit(probes)
        engine = RetrievalEngine(lemp)
        assert engine.num_probes == probes.shape[0]  # falls back to the store
        expected = engine.row_top_k(queries, 4)
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        actual = loaded.row_top_k(queries, 4)
        assert np.array_equal(expected.indices, actual.indices)
        assert np.array_equal(expected.scores, actual.scores)

    def test_instance_wrapped_updates_stay_consistent(self, workload):
        queries, probes, _ = workload
        extra = make_factors(10, rank=10, length_cov=1.0, seed=44)
        engine = RetrievalEngine(Lemp(algorithm="LI", seed=0).fit(probes))
        engine.partial_fit(extra)
        assert engine.num_probes == probes.shape[0] + 10
        engine.remove([0])
        assert engine.num_probes == probes.shape[0] + 9
        fresh = NaiveRetriever().fit(np.delete(np.vstack([probes, extra]), [0], axis=0))
        assert np.allclose(
            engine.row_top_k(queries, 3).scores, fresh.row_top_k(queries, 3).scores
        )

    def test_loaded_engine_supports_further_updates_and_saves(self, workload, tmp_path):
        queries, probes, _ = workload
        RetrievalEngine("lemp:LI", seed=0).fit(probes).save(tmp_path / "a")
        loaded = RetrievalEngine.load(tmp_path / "a")
        extra = make_factors(8, rank=10, length_cov=1.0, seed=45)
        loaded.partial_fit(extra)
        assert loaded.num_probes == probes.shape[0] + 8
        loaded.save(tmp_path / "b")
        again = RetrievalEngine.load(tmp_path / "b")
        assert np.array_equal(
            again.row_top_k(queries, 3).scores, loaded.row_top_k(queries, 3).scores
        )


class TestPersistenceFormat:
    """Format versions, the BLSH base semantics marker, and old meta keys."""

    def test_saved_meta_records_format_and_blsh_semantics(self, workload, tmp_path):
        _, probes, _ = workload
        RetrievalEngine("lemp:BLSH", seed=0).fit(probes).save(tmp_path / "blsh")
        meta = json.loads((tmp_path / "blsh" / "meta.json").read_text())
        assert meta["format"] == FORMAT_VERSION
        assert meta["blsh_base"] == "per-query-theta-b"
        # The legacy paper-name alias must be recognised as BLSH too.
        RetrievalEngine("LEMP-BLSH", seed=0).fit(probes).save(tmp_path / "alias")
        meta = json.loads((tmp_path / "alias" / "meta.json").read_text())
        assert meta["blsh_base"] == "per-query-theta-b"
        RetrievalEngine("lemp:LI", seed=0).fit(probes).save(tmp_path / "li")
        meta = json.loads((tmp_path / "li" / "meta.json").read_text())
        assert meta["format"] == FORMAT_VERSION
        assert "blsh_base" not in meta

    @pytest.mark.parametrize("spec", ["lemp:BLSH", "LEMP-BLSH"])
    def test_ratchet_era_blsh_index_loads_with_future_warning(self, spec, workload, tmp_path):
        queries, probes, _ = workload
        theta = pick_theta(queries, probes, 120)
        engine = RetrievalEngine(spec, seed=0).fit(probes)
        expected = engine.above_theta(queries, theta)
        engine.save(tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 1
        del meta["blsh_base"]
        meta_path.write_text(json.dumps(meta))
        # FutureWarning, not DeprecationWarning: the note targets end users
        # loading old indexes, and DeprecationWarning is hidden by default
        # outside __main__/pytest.
        with pytest.warns(FutureWarning, match="order-independent"):
            loaded = RetrievalEngine.load(tmp_path / "idx")
        _assert_above_bytes_equal(expected, loaded.above_theta(queries, theta))

    def test_format_1_exact_index_loads_silently(self, workload, tmp_path, recwarn):
        _, probes, _ = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.save(tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 1
        meta_path.write_text(json.dumps(meta))
        RetrievalEngine.load(tmp_path / "idx")
        assert not [
            w for w in recwarn
            if issubclass(w.category, (DeprecationWarning, FutureWarning))
        ]

    def test_unknown_format_rejected(self, workload, tmp_path):
        _, probes, _ = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.save(tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(PersistenceError):
            RetrievalEngine.load(tmp_path / "idx")

    def test_old_planner_meta_keys_are_ignored(self, workload, tmp_path):
        """Indexes saved by 2.x with planner settings load and answer identically."""
        queries, probes, _ = workload
        theta = pick_theta(queries, probes, 120)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        expected_top = engine.row_top_k(queries, 5)
        expected_above = engine.above_theta(queries, theta)
        engine.save(tmp_path / "idx")
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        # The keys exactly as version 2.8 wrote them.
        meta["plan_policy"] = {"combine_axes": False}
        meta["plan_mode"] = "auto"
        meta["cost_model"] = {
            "alpha": 0.25,
            "entries": [{
                "dispatch_observations": 0, "dispatch_seconds": None,
                "pair_observations": 6, "pair_seconds": 1.9593189277233117e-06,
                "problem": "row_top_k", "shape": [6, 8], "spec": "lemp:LI",
            }],
            "min_observations": 5,
        }
        meta_path.write_text(json.dumps(meta))
        loaded = RetrievalEngine.load(tmp_path / "idx")
        top = loaded.row_top_k(queries, 5)
        assert np.array_equal(top.indices, expected_top.indices)
        assert np.array_equal(top.scores, expected_top.scores)
        _assert_above_bytes_equal(expected_above, loaded.above_theta(queries, theta))


def _assert_above_bytes_equal(expected, observed) -> None:
    for left, right in ((expected.query_ids, observed.query_ids),
                        (expected.probe_ids, observed.probe_ids),
                        (expected.scores, observed.scores)):
        np.testing.assert_array_equal(left, right)


def _rewrite_index(path, mutate) -> None:
    """Rewrite ``index.npz`` through ``mutate(arrays)``, keeping members stored."""
    index_path = Path(path) / "index.npz"
    with np.load(index_path) as data:
        arrays = {key: np.array(data[key]) for key in data.files}
    mutate(arrays)
    with open(index_path, "wb") as handle:
        np.savez(handle, **arrays)


#: Integer counters a loaded engine's calls must reproduce.
_COUNTERS = ("num_queries", "candidates", "results", "inner_products",
             "buckets_examined", "buckets_pruned")


def _as_older_save(path, fmt, spec, kwargs, members) -> None:
    """Rewrite a saved index as an older library wrote it: format, spec, kwargs, tier members."""
    meta_path = Path(path) / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format"] = fmt
    meta["spec"] = spec
    meta["kwargs"].update(kwargs)
    meta_path.write_text(json.dumps(meta))

    def add(arrays):
        directions = arrays["state.directions"]
        for name in members:
            kind = name.split("_")[-1]
            if kind == "data":
                arrays["state." + name] = directions.astype(np.float16)
            else:
                # int8 scale / offset: one value per row, NaN included, which
                # a tier loader rejected; they must not be read at all.
                arrays["state." + name] = np.full(directions.shape[0], np.nan)
    _rewrite_index(path, add)


class TestLegacyTierIndexes:
    """Indexes saved with a compressed screening or generation tier load exact."""

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize("fmt, spec, kwargs, members", [
        (5, "lemp:LI/f16", {"screen_dtype": "f16", "gen_dtype": None}, ["screen_data"]),
        (4, "lemp:LI/int8", {"screen_dtype": "int8"},
         ["screen_data", "screen_scale", "screen_offset"]),
        (5, "lemp:LI", {"screen_dtype": None, "gen_dtype": "int8"},
         ["gen_data", "gen_scale", "gen_offset"]),
    ], ids=["f16-screen", "int8-screen-format-4", "int8-gen"])
    def test_tiered_index_loads_exact_with_one_warning(self, fmt, spec, kwargs, members,
                                                       mmap_mode, workload, tmp_path):
        queries, probes, _ = workload
        theta = pick_theta(queries, probes, 300)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.save(tmp_path / "exact")
        engine.save(tmp_path / "tiered")
        _as_older_save(tmp_path / "tiered", fmt, spec, kwargs, members)

        exact = RetrievalEngine.load(tmp_path / "exact", mmap_mode=mmap_mode)
        with pytest.warns(FutureWarning, match="compressed screening or generation") as caught:
            loaded = RetrievalEngine.load(tmp_path / "tiered", mmap_mode=mmap_mode)
        assert len([w for w in caught if issubclass(w.category, FutureWarning)]) == 1
        assert loaded.spec == "lemp:LI"
        assert not {"screen_dtype", "gen_dtype"} & set(loaded.retriever.get_params())

        _assert_above_bytes_equal(exact.above_theta(queries, theta),
                                  loaded.above_theta(queries, theta))
        expected, actual = exact.row_top_k(queries, 5), loaded.row_top_k(queries, 5)
        np.testing.assert_array_equal(expected.indices, actual.indices)
        np.testing.assert_array_equal(expected.scores, actual.scores)
        assert ({name: getattr(exact.stats, name) for name in _COUNTERS}
                == {name: getattr(loaded.stats, name) for name in _COUNTERS})

        # Re-saving writes no tier, and the re-saved index loads silently.
        loaded.save(tmp_path / "resaved")
        with np.load(tmp_path / "resaved" / "index.npz") as data:
            assert not [key for key in data.files if key.startswith(("state.screen_",
                                                                       "state.gen_"))]
        meta = json.loads((tmp_path / "resaved" / "meta.json").read_text())
        assert meta["format"] == FORMAT_VERSION == 5
        assert meta["spec"] == "lemp:LI"

    def test_untiered_format_5_kwargs_load_silently(self, workload, tmp_path, recwarn):
        # Libraries before 5.0 wrote ``screen_dtype: null`` / ``gen_dtype: null``
        # into every LEMP index; those keys are dropped without a warning.
        queries, probes, _ = workload
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        expected = engine.row_top_k(queries, 5)
        engine.save(tmp_path / "idx")
        _as_older_save(tmp_path / "idx", 5, "lemp:LI",
                       {"screen_dtype": None, "gen_dtype": None}, [])
        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert not [w for w in recwarn if issubclass(w.category, FutureWarning)]
        np.testing.assert_array_equal(loaded.row_top_k(queries, 5).indices, expected.indices)

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    def test_format_3_index_loads(self, mmap_mode, workload, tmp_path):
        queries, probes, _ = workload
        theta = pick_theta(queries, probes, 300)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        expected = engine.above_theta(queries, theta)
        engine.save(tmp_path / "idx")
        _as_older_save(tmp_path / "idx", 3, "lemp:LI", {}, [])
        loaded = RetrievalEngine.load(tmp_path / "idx", mmap_mode=mmap_mode)
        _assert_above_bytes_equal(expected, loaded.above_theta(queries, theta))

    def test_tier_spec_suffix_is_unknown(self):
        for spec in ("lemp:LI/f16", "LEMP-LI/f16", "lemp/f32", "naive/int8"):
            with pytest.raises(UnknownAlgorithmError):
                create_retriever(spec)
        with pytest.raises(TypeError):
            Lemp(screen_dtype="f16")


class TestIncrementalUpdates:
    def test_acceptance_partial_fit_500x16(self):
        """Acceptance criterion: partial_fit == fresh fit on a 500x16 workload."""
        rng = np.random.default_rng(0)
        queries = rng.standard_normal((500, 16))
        base = rng.standard_normal((400, 16))
        extra = rng.standard_normal((100, 16))
        incremental = Lemp(algorithm="LI", seed=0).fit(base).partial_fit(extra)
        fresh = Lemp(algorithm="LI", seed=0).fit(np.vstack([base, extra]))
        top_inc = incremental.row_top_k(queries, 10)
        top_fresh = fresh.row_top_k(queries, 10)
        assert np.array_equal(top_inc.indices, top_fresh.indices)
        assert np.array_equal(top_inc.scores, top_fresh.scores)

    @pytest.mark.parametrize("algorithm", ["LI", "LC", "L", "TREE"])
    def test_lemp_partial_fit_matches_fresh_fit(self, algorithm, workload):
        queries, probes, _ = workload
        extra = make_factors(40, rank=10, length_cov=1.0, seed=99)
        incremental = Lemp(algorithm=algorithm, seed=0).fit(probes).partial_fit(extra)
        fresh = Lemp(algorithm=algorithm, seed=0).fit(np.vstack([probes, extra]))
        # The layout may differ from the fresh fit's; its invariants may not.
        assert_layout_invariants(incremental)
        theta = pick_theta(queries, np.vstack([probes, extra]), 90)
        above = incremental.above_theta(queries, theta)
        assert above.to_set() == fresh.above_theta(queries, theta).to_set()
        assert above.to_set() == brute_force_above(queries, np.vstack([probes, extra]), theta)
        top_inc = incremental.row_top_k(queries, 5)
        top_fresh = fresh.row_top_k(queries, 5)
        assert np.array_equal(top_inc.indices, top_fresh.indices)
        assert np.array_equal(top_inc.scores, top_fresh.scores)

    def test_lemp_remove_matches_fresh_fit(self, workload):
        queries, probes, _ = workload
        rng = np.random.default_rng(5)
        dropped = rng.choice(probes.shape[0], size=30, replace=False)
        incremental = Lemp(algorithm="LI", seed=0).fit(probes).remove(dropped)
        fresh = Lemp(algorithm="LI", seed=0).fit(np.delete(probes, dropped, axis=0))
        top_inc = incremental.row_top_k(queries, 5)
        top_fresh = fresh.row_top_k(queries, 5)
        assert np.array_equal(top_inc.indices, top_fresh.indices)
        assert np.array_equal(top_inc.scores, top_fresh.scores)

    def test_lemp_untouched_buckets_keep_caches(self, workload):
        queries, probes, naive = workload
        lemp = Lemp(algorithm="I", seed=0).fit(probes)
        lemp.row_top_k(queries, 3)  # builds sorted lists lazily
        before = {id(b): b for b in lemp.buckets}
        rebuilt = lemp.stats.buckets_rebuilt
        # A vector shorter than everything else joins the last bucket, so
        # only that bucket (and a piece it may split into) is rebuilt;
        # every other bucket, with its sorted lists, is reused in place.
        tiny = np.full((1, probes.shape[1]), 1e-6)
        lemp.partial_fit(tiny)
        assert_layout_invariants(lemp)
        new = [b for b in lemp.buckets if id(b) not in before]
        assert lemp.stats.buckets_rebuilt - rebuilt == len(new) <= 2
        assert all(b is lemp.buckets[-1] or b in new or b.sorted_lists_built
                   for b in lemp.buckets)
        assert len(lemp.buckets) - len(new) == len(before) - 1
        reference = NaiveRetriever().fit(np.vstack([probes, tiny])).row_top_k(queries, 3)
        result = lemp.row_top_k(queries, 3)
        assert np.array_equal(result.indices, reference.indices)
        assert np.allclose(result.scores, reference.scores)

    def test_naive_incremental_matches_fresh(self, workload):
        queries, probes, _ = workload
        extra = make_factors(25, rank=10, length_cov=1.0, seed=77)
        rng = np.random.default_rng(6)
        dropped = rng.choice(probes.shape[0] + 25, size=20, replace=False)
        incremental = NaiveRetriever().fit(probes).partial_fit(extra).remove(dropped)
        fresh = NaiveRetriever().fit(np.delete(np.vstack([probes, extra]), dropped, axis=0))
        top_inc = incremental.row_top_k(queries, 5)
        top_fresh = fresh.row_top_k(queries, 5)
        assert np.array_equal(top_inc.indices, top_fresh.indices)

    def test_partial_fit_on_unfitted_is_fit(self, workload):
        queries, probes, naive = workload
        lemp = Lemp(algorithm="LI", seed=0).partial_fit(probes)
        assert np.allclose(
            lemp.row_top_k(queries, 3).scores, naive.row_top_k(queries, 3).scores
        )

    def test_remove_invalid_ids_rejected(self, workload):
        _, probes, _ = workload
        lemp = Lemp(algorithm="LI", seed=0).fit(probes)
        with pytest.raises(Exception):
            lemp.remove([probes.shape[0] + 5])

    def test_updates_unsupported_elsewhere(self, workload):
        _, probes, _ = workload
        retriever = create_retriever("tree:cover", seed=0).fit(probes)
        assert not retriever.supports_updates
        with pytest.raises(UnsupportedOperationError):
            retriever.partial_fit(probes[:2])
        with pytest.raises(UnsupportedOperationError):
            retriever.remove([0])
        assert Lemp().supports_updates
        assert NaiveRetriever().supports_updates

    def test_engine_updates_track_probes(self, workload):
        queries, probes, _ = workload
        extra = make_factors(10, rank=10, length_cov=1.0, seed=88)
        engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
        engine.partial_fit(extra).remove([0, 1])
        assert engine.num_probes == probes.shape[0] + 10 - 2
        fresh = NaiveRetriever().fit(np.delete(np.vstack([probes, extra]), [0, 1], axis=0))
        assert np.allclose(
            engine.row_top_k(queries, 3).scores, fresh.row_top_k(queries, 3).scores
        )

    @pytest.mark.parametrize("spec, keeps_copy", [("lemp:LI", False), ("naive", True)])
    def test_engine_copies_probes_only_without_index_state(self, spec, keeps_copy,
                                                           workload, tmp_path):
        queries, probes, _ = workload
        assert RetrievalEngine(spec).rank is None
        engine = RetrievalEngine(spec).fit(probes)
        engine.partial_fit(make_factors(10, rank=10, seed=88)).remove([0, 1])
        assert (engine._probes is not None) == keeps_copy
        assert engine.rank == probes.shape[1]
        engine.save(tmp_path / "idx")
        loaded = RetrievalEngine.load(tmp_path / "idx")
        assert (loaded.num_probes, loaded.rank) == (engine.num_probes, engine.rank)
        expected = engine.row_top_k(queries, 3)
        result = loaded.row_top_k(queries, 3)
        assert np.array_equal(result.indices, expected.indices)
        assert np.array_equal(result.scores, expected.scores)


class TestEmptyResults:
    def test_above_theta_empty_round_trip(self):
        result = AboveThetaResult([], [], [], 2.0)
        assert result.query_ids.dtype == np.int64
        assert result.sorted_by_score().num_results == 0
        assert result.to_set() == set()

    def test_top_k_empty_round_trip(self):
        result = TopKResult([], [], 5)
        assert result.indices.shape == (0, 5)
        assert result.scores.shape == (0, 5)
        assert result.row_sets() == []

    def test_above_theta_concat_empty(self):
        merged = AboveThetaResult.concat([], 1.5)
        assert merged.num_results == 0
        assert merged.theta == 1.5
        assert merged.sorted_by_score().to_set() == set()

    def test_top_k_concat_empty(self):
        merged = TopKResult.concat([], 7)
        assert merged.indices.shape == (0, 7)
        assert merged.row_sets() == []

    def test_concat_offsets_map_batch_ids(self):
        part_a = AboveThetaResult([0, 1], [3, 4], [2.0, 1.5], 1.0)
        part_b = AboveThetaResult([0], [9], [3.0], 1.0)
        merged = AboveThetaResult.concat([part_a, part_b], 1.0, query_offsets=[0, 2])
        assert merged.to_set() == {(0, 3), (1, 4), (2, 9)}

    def test_zero_matches_through_retrievers(self, workload):
        queries, probes, _ = workload
        for spec in ("lemp:LI", "naive", "ta:blocked"):
            retriever = create_retriever(spec, seed=0).fit(probes)
            result = retriever.above_theta(queries, 1e9)
            assert result.num_results == 0, spec
            assert result.sorted_by_score().to_set() == set(), spec
