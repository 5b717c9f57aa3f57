"""The screening tier's lock-down harness: byte identity and counter classes.

The quantized screening tier (:mod:`repro.core.screening`) promises that a
screened engine returns results **byte-identical** to the unscreened one —
screening may only change *how many* candidates reach the exact kernel.
This module pins that contract along every axis it could break on:

* algorithms whose candidate generation differs (L / I / LI / L2AP and the
  approximate BLSH) × every screen dtype × both verification kernels;
* engine lifecycles: a warm engine whose ``screen_dtype`` is toggled
  between calls (the only setup in which counters are comparable — tuning
  outcomes are shared), an incrementally updated engine, and an engine
  reloaded from disk (eagerly and memory-mapped);
* an adversarial hypothesis generator that plants probe scores within a few
  ULPs of θ on both sides, proving the conservatively widened bound never
  drops a true pair even when the exact score and the threshold collide at
  floating-point resolution.

Counter classes, asserted for the warm-toggle setup: screening preserves
the candidate counters exactly and splits the unscreened ``inner_products``
into verified survivors plus ``screen_dropped``::

    screened.candidates     == unscreened.candidates
    screened.inner_products + screened.screen_dropped
                            == unscreened.inner_products
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import KERNELS, use_kernel
from repro.core.lemp import Lemp
from repro.core.screening import SCREEN_DTYPES, ScreenTier, validate_screen_dtype
from repro.engine.facade import RetrievalEngine
from repro.exceptions import ScreeningError
from tests.conftest import make_factors, pick_theta

K = 5

ALGORITHMS = ("L", "I", "LI", "L2AP", "BLSH")


@pytest.fixture(scope="module")
def problem():
    queries = make_factors(60, rank=10, length_cov=1.0, seed=41)
    probes = make_factors(300, rank=10, length_cov=1.0, seed=42)
    theta = pick_theta(queries, probes, 400)
    return queries, probes, theta


def assert_above_equal(left, right):
    assert np.array_equal(left.query_ids, right.query_ids)
    assert np.array_equal(left.probe_ids, right.probe_ids)
    assert np.array_equal(left.scores, right.scores)


def assert_topk_equal(left, right):
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.scores, right.scores)


# ----------------------------------------------------------- warm-toggle grid


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_screened_run_is_byte_identical_and_counter_split(
    problem, algorithm, dtype_name, kernel
):
    """One warm engine, screen toggled between calls: bytes and counters."""
    queries, probes, theta = problem
    with use_kernel(kernel):
        retriever = Lemp(algorithm=algorithm, seed=0).fit(probes)
        # Warm the tuning cache so both measured runs share tuning outcomes
        # (candidate counters are only comparable under shared tuning).
        retriever.above_theta(queries, theta)
        retriever.row_top_k(queries, K)

        retriever.stats.reset()
        reference_above = retriever.above_theta(queries, theta)
        reference_topk = retriever.row_top_k(queries, K)
        base_candidates = retriever.stats.candidates
        base_inner = retriever.stats.inner_products
        assert retriever.stats.screen_products == 0

        retriever.stats.reset()
        retriever.screen_dtype = validate_screen_dtype(dtype_name)
        screened_above = retriever.above_theta(queries, theta)
        screened_topk = retriever.row_top_k(queries, K)

    assert_above_equal(screened_above, reference_above)
    assert_topk_equal(screened_topk, reference_topk)

    stats = retriever.stats
    assert stats.candidates == base_candidates
    assert stats.inner_products + stats.screen_dropped == base_inner
    assert stats.screen_products > 0
    assert stats.screen_dropped > 0  # the tier must actually prune something


@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
def test_screening_off_names_are_accepted_and_inert(problem, dtype_name):
    queries, probes, theta = problem
    reference = Lemp(algorithm="LI", seed=0).fit(probes).above_theta(queries, theta)
    for off in (None, "none", "off", "f64", ""):
        retriever = Lemp(algorithm="LI", seed=0, screen_dtype=off).fit(probes)
        assert retriever.screen_dtype is None
        assert_above_equal(retriever.above_theta(queries, theta), reference)
        assert retriever.stats.screen_products == 0
    with pytest.raises(ScreeningError, match="unknown screen dtype"):
        Lemp(screen_dtype="bf16")


# ------------------------------------------------------------ updated engines


@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
def test_updated_engine_stays_byte_identical(dtype_name):
    """partial_fit + remove patch the tier in sync with the store."""
    queries = make_factors(40, rank=10, length_cov=1.0, seed=43)
    probes = make_factors(260, rank=10, length_cov=1.0, seed=44)
    theta = pick_theta(queries, probes, 250)

    def evolve(retriever):
        retriever.fit(probes[:200])
        retriever.above_theta(queries, theta)  # force a screened tier build
        retriever.partial_fit(probes[200:])
        retriever.remove(np.arange(10, 40))
        return retriever

    plain = evolve(Lemp(algorithm="LI", seed=0))
    screened = evolve(Lemp(algorithm="LI", seed=0, screen_dtype=dtype_name))
    assert_above_equal(
        screened.above_theta(queries, theta), plain.above_theta(queries, theta)
    )
    assert_topk_equal(screened.row_top_k(queries, K), plain.row_top_k(queries, K))

    # The patched tier's live rows, in store order, must equal a fresh
    # quantization of the updated matrix (gap rows are never read).
    survivors = np.delete(np.vstack([probes[:200], probes[200:]]),
                          np.arange(10, 40), axis=0)
    fresh = Lemp(algorithm="LI", seed=0, screen_dtype=dtype_name).fit(survivors)
    live = screened.store.live_positions()
    patched = screened.store.screen_tier(dtype_name)
    rebuilt = fresh.store.screen_tier(dtype_name)
    assert np.array_equal(patched.data[live], rebuilt.data)
    assert np.array_equal(patched.bounds[live], rebuilt.bounds)
    if dtype_name == "int8":
        assert np.array_equal(patched.scale[live], rebuilt.scale)
        assert np.array_equal(patched.offset[live], rebuilt.offset)


# ----------------------------------------------------------- reloaded engines


@pytest.mark.parametrize("mmap_mode", [None, "r"])
@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
def test_reloaded_engine_stays_byte_identical(tmp_path, dtype_name, mmap_mode):
    queries = make_factors(40, rank=10, length_cov=1.0, seed=45)
    probes = make_factors(260, rank=10, length_cov=1.0, seed=46)
    theta = pick_theta(queries, probes, 250)

    reference = RetrievalEngine("lemp:LI").fit(probes)
    engine = RetrievalEngine(f"lemp:LI/{dtype_name}").fit(probes)
    engine.save(tmp_path / "index")
    loaded = RetrievalEngine.load(tmp_path / "index", mmap_mode=mmap_mode)

    assert loaded.screen_dtype == dtype_name
    # The persisted tier is installed at load time, not rebuilt.
    assert dtype_name in loaded.retriever.store._screen_tiers
    assert_above_equal(
        loaded.above_theta(queries, theta), reference.above_theta(queries, theta)
    )
    assert_topk_equal(loaded.row_top_k(queries, K), reference.row_top_k(queries, K))
    assert loaded.stats.screen_products > 0


def test_engine_screen_toggle_persists(tmp_path, problem):
    queries, probes, theta = problem
    engine = RetrievalEngine("lemp:LI").fit(probes)
    engine.screen_dtype = "f16"
    engine.save(tmp_path / "index")
    loaded = RetrievalEngine.load(tmp_path / "index")
    assert loaded.screen_dtype == "f16"
    assert_above_equal(
        loaded.above_theta(queries, theta), engine.above_theta(queries, theta)
    )


# --------------------------------------------------- adversarial near-theta


def _near_threshold_problem(rank, theta, ulp_offsets, background, seed):
    """Probes whose exact scores sit ``offset`` ULPs from θ, plus background.

    The query is a unit vector ``q``; each near-threshold probe is
    ``s·q + c·w`` with ``w ⊥ q``, so its inner product with ``q`` is ``s``
    up to representation — placed within a few ULPs of θ on either side.
    Background probes sit far below θ so screening has genuine work.
    """
    rng = np.random.default_rng(seed)
    query = rng.standard_normal(rank)
    query /= np.linalg.norm(query)
    witness = rng.standard_normal(rank)
    witness -= (witness @ query) * query
    witness /= np.linalg.norm(witness)

    ulp = np.spacing(theta)
    targets = theta + np.asarray(ulp_offsets, dtype=np.float64) * ulp
    mix = rng.uniform(0.1, 2.0, size=targets.size)
    near = targets[:, None] * query + mix[:, None] * witness
    low = rng.uniform(0.0, theta * 0.25, size=background)
    far = low[:, None] * query + rng.uniform(0.1, 2.0, size=background)[:, None] * witness
    return query[None, :], np.vstack([near, far])


@given(
    rank=st.integers(min_value=4, max_value=24),
    theta=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    ulp_offsets=st.lists(
        st.integers(min_value=-8, max_value=8), min_size=16, max_size=48
    ),
    dtype_name=st.sampled_from(SCREEN_DTYPES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_widened_bound_never_drops_a_near_threshold_pair(
    rank, theta, ulp_offsets, dtype_name, seed
):
    """Scores within ±8 ULPs of θ: screened output == unscreened output.

    The screening keep-test mirrors the exact verification test (including
    its slack) with the threshold *widened* by the tier's error bound, so a
    pair whose exact score ties or barely clears θ must always survive the
    screen — even when the score and θ collide at floating-point resolution.
    """
    queries, probes = _near_threshold_problem(
        rank, theta, ulp_offsets, background=40, seed=seed
    )
    plain = Lemp(algorithm="L", seed=0).fit(probes)
    screened = Lemp(algorithm="L", seed=0, screen_dtype=dtype_name).fit(probes)
    reference = plain.above_theta(queries, theta)
    result = screened.above_theta(queries, theta)
    assert_above_equal(result, reference)
    # The band straddles θ, so the run is non-trivial in both directions
    # whenever offsets of both signs were drawn.
    offsets = np.asarray(ulp_offsets)
    if (offsets > 0).any():
        assert reference.num_results > 0
    assert screened.stats.screen_products > 0


@given(
    rank=st.integers(min_value=4, max_value=16),
    duplicates=st.integers(min_value=2, max_value=6),
    dtype_name=st.sampled_from(SCREEN_DTYPES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_top_k_with_exact_ties_is_screen_invariant(rank, duplicates, dtype_name, seed):
    """Duplicate probe rows force exact score ties at the k-th boundary.

    Tie resolution is a pure function of the (score, id) multiset (see
    ``solve_row_top_k``), so the screened walk — which merges fewer
    below-boundary candidates — must keep the same rows in the same order.
    """
    rng = np.random.default_rng(seed)
    base = make_factors(30, rank=rank, length_cov=1.0, seed=seed)
    probes = np.vstack([base] + [base[:10]] * duplicates)  # exact duplicates
    queries = make_factors(12, rank=rank, length_cov=1.0, seed=seed + 1)
    plain = Lemp(algorithm="L", seed=0).fit(probes)
    screened = Lemp(algorithm="L", seed=0, screen_dtype=dtype_name).fit(probes)
    assert_topk_equal(screened.row_top_k(queries, K), plain.row_top_k(queries, K))


# ------------------------------------------------------------ tier unit tests


def test_upper_cosines_bounds_exact_cosine():
    directions = make_factors(200, rank=16, length_cov=0.0, seed=47)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    query = directions[0]
    rows = np.arange(200)
    exact = directions @ query
    for dtype_name in SCREEN_DTYPES:
        tier = ScreenTier.build(directions, dtype_name)
        upper = tier.upper_cosines(0, rows, query)
        assert np.all(upper >= exact), dtype_name


def test_tier_state_round_trip_and_validation():
    directions = make_factors(50, rank=8, length_cov=0.0, seed=48)
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    for dtype_name in SCREEN_DTYPES:
        tier = ScreenTier.build(directions, dtype_name)
        state = tier.state_arrays()
        restored = ScreenTier.from_state(
            dtype_name, state["screen_data"], state.get("screen_scale"),
            state.get("screen_offset"), expected_shape=directions.shape
        )
        assert np.array_equal(restored.data, tier.data)
        assert np.array_equal(restored.bounds, tier.bounds)
    with pytest.raises(ScreeningError, match="shape"):
        ScreenTier.from_state(
            "f16", directions.astype(np.float16), expected_shape=(49, 8)
        )
    with pytest.raises(ScreeningError, match="stored as"):
        ScreenTier.from_state("f16", directions.astype(np.float32))
    with pytest.raises(ScreeningError, match="missing its scale"):
        ScreenTier.from_state("int8", np.zeros((50, 8), dtype=np.int8))
    with pytest.raises(ScreeningError, match="non-finite"):
        ScreenTier.from_state(
            "int8", np.zeros((2, 8), dtype=np.int8),
            np.array([np.nan, 0.0]), np.zeros(2),
        )


def test_zero_and_constant_rows_reconstruct_exactly():
    directions = np.zeros((3, 6))
    directions[1] = 0.25  # constant row: scale 0, offset carries the value
    directions[2, 0] = 1.0
    tier = ScreenTier.build(directions, "int8")
    assert np.array_equal(tier.data[0], np.zeros(6, dtype=np.int8))
    assert tier.scale[0] == 0.0 and tier.offset[0] == 0.0
    assert tier.scale[1] == 0.0 and tier.offset[1] == 0.25
    query = np.full(6, 1.0)
    upper = tier.upper_cosines(0, np.arange(3), query)
    exact = directions @ query
    assert np.all(upper >= exact)
