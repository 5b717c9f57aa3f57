"""Lock-down harness for compressed candidate generation (``gen_dtype``).

The generation tier (:class:`~repro.core.lemp.Lemp` with ``gen_dtype`` set)
promises results **byte-identical** to the exact engine: the index scans run
over quantized probe directions with every feasible region and pruning bound
widened by the tier's error bound, so generation may only *over-produce* —
never drop — a candidate the exact scan would surface, and exact f64
verification removes the surplus.  This module pins that contract along
every axis it could break on:

* algorithms whose candidate generation differs (L / I / LI / L2AP and the
  approximate BLSH, whose signature build must stay bit-identical) × every
  gen dtype;
* engine lifecycles: warm engines whose ``gen_dtype`` is toggled between
  calls, incrementally updated engines (``partial_fit`` / ``remove`` patch
  the shared tier row-locally), engines reloaded from disk (eagerly and
  memory-mapped, with the tier travelling in the index state), and
  chunk-sharded calls on worker threads;
* an adversarial hypothesis generator that plants probe scores — and with
  them the probes' focus-coordinate values — within a few ULPs of the
  feasible-region edges derived from θ, proving the widened regions never
  exclude a boundary true candidate at floating-point resolution, across
  the full dtype × algorithm × lifecycle grid.

Counter relation, asserted for the warm-toggle setup: compressed generation
never generates fewer candidates than the exact scan::

    compressed.candidates >= exact.candidates
    compressed results    == exact results   (byte for byte)
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lemp import Lemp
from repro.core.screening import SCREEN_DTYPES, validate_gen_dtype
from repro.engine.facade import RetrievalEngine
from repro.exceptions import ScreeningError
from tests.conftest import make_factors, pick_theta

K = 5

ALGORITHMS = ("L", "I", "LI", "L2AP", "BLSH")

ENGINE_STATES = ("warm", "updated", "reloaded_eager", "reloaded_mmap")


@pytest.fixture(scope="module")
def problem():
    queries = make_factors(60, rank=10, length_cov=1.0, seed=51)
    probes = make_factors(300, rank=10, length_cov=1.0, seed=52)
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


@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_compressed_generation_is_byte_identical(problem, algorithm, dtype_name):
    """One warm engine, ``gen_dtype`` toggled between calls: bytes + counters."""
    queries, probes, theta = problem
    retriever = Lemp(algorithm=algorithm, seed=0).fit(probes)
    # Warm the tuning cache so both measured runs share tuning outcomes
    # (the tuning key deliberately excludes gen_dtype).
    retriever.above_theta(queries, theta)
    retriever.row_top_k(queries, K)

    retriever.stats.reset()
    reference_above = retriever.above_theta(queries, theta)
    reference_topk = retriever.row_top_k(queries, K)
    base_candidates = retriever.stats.candidates

    retriever.stats.reset()
    retriever.gen_dtype = validate_gen_dtype(dtype_name)
    compressed_above = retriever.above_theta(queries, theta)
    compressed_topk = retriever.row_top_k(queries, K)

    assert_above_equal(compressed_above, reference_above)
    assert_topk_equal(compressed_topk, reference_topk)
    # Over-produce, never drop: the widened scans may only add candidates.
    assert retriever.stats.candidates >= base_candidates


@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
def test_generation_off_names_are_accepted_and_inert(problem, dtype_name):
    queries, probes, theta = problem
    reference = Lemp(algorithm="LI", seed=0).fit(probes).above_theta(queries, theta)
    for off in (None, "none", "off", "f64", ""):
        retriever = Lemp(algorithm="LI", seed=0, gen_dtype=off).fit(probes)
        assert retriever.gen_dtype is None
        assert_above_equal(retriever.above_theta(queries, theta), reference)
    with pytest.raises(ScreeningError, match="unknown gen dtype"):
        Lemp(gen_dtype="bf16")


def test_generation_memory_shrinks(problem):
    """The compressed sorted lists are materially smaller than the f64 ones."""
    queries, probes, theta = problem
    # Pure INCR: LI's tuner sends every pair of these small buckets to
    # LENGTH, which builds no sorted lists at all.
    exact = Lemp(algorithm="I", seed=0).fit(probes)
    exact.above_theta(queries, theta)
    exact_bytes = exact.generation_memory_bytes()
    assert exact_bytes > 0
    # All tiers build f32-valued lists (f16 expands losslessly to f32 for
    # scan speed; int8 rows are not comparable as raw codes), so every ratio
    # lands near (4+4)/16 = 0.5 plus int8's per-row bound vector.
    for dtype_name, limit in (("f32", 0.56), ("f16", 0.56), ("int8", 0.56)):
        compressed = Lemp(algorithm="I", seed=0, gen_dtype=dtype_name).fit(probes)
        compressed.above_theta(queries, theta)
        ratio = compressed.generation_memory_bytes() / exact_bytes
        assert ratio <= limit, (dtype_name, ratio)


# ------------------------------------------------------------ engine lifecycle


def _run(engine, queries, theta):
    above = engine.above_theta(queries, theta)
    topk = engine.row_top_k(queries, K)
    return above, topk


def _lifecycle_pair(algorithm, dtype_name, probes, state):
    """(exact, compressed) fitted engines in the requested lifecycle state."""
    def build(gen):
        retriever = Lemp(algorithm=algorithm, seed=0, gen_dtype=gen)
        if state == "updated":
            half = probes.shape[0] // 2
            retriever.fit(probes[:half])
            retriever.partial_fit(probes[half:])
            retriever.remove(np.arange(3, 23))
        else:
            retriever.fit(probes)
        if state in ("reloaded_eager", "reloaded_mmap"):
            engine = RetrievalEngine(retriever)
            tmp = tempfile.TemporaryDirectory()
            engine.save(Path(tmp.name) / "index")
            mode = "r" if state == "reloaded_mmap" else None
            loaded = RetrievalEngine.load(Path(tmp.name) / "index", mmap_mode=mode)
            # Keep the saved files alive while the mapped arrays are in use;
            # the directory is cleaned up when the engine is collected.
            loaded._tmpdir_keepalive = tmp
            return loaded.retriever
        return retriever

    return build(None), build(dtype_name)


@pytest.mark.parametrize("state", ENGINE_STATES + ("sharded",))
@pytest.mark.parametrize("dtype_name", SCREEN_DTYPES)
def test_lifecycle_byte_identity(problem, state, dtype_name):
    queries, probes, theta = problem
    exact, compressed = _lifecycle_pair("LI", dtype_name, probes, state)
    if state == "sharded":
        # Chunk-sharded: 4 chunks of 15 rows, the three after the warm-up
        # chunk on two worker threads, against the exact tier run serially
        # over the same chunks (Above-θ output follows chunk order).
        exact = RetrievalEngine(exact)
        compressed = RetrievalEngine(compressed, workers=2)
        assert compressed.explain(queries, k=K, batch_size=15).workers == 2
        kwargs = {"batch_size": 15}
    else:
        kwargs = {}
    assert_above_equal(
        compressed.above_theta(queries, theta, **kwargs),
        exact.above_theta(queries, theta, **kwargs),
    )
    assert_topk_equal(
        compressed.row_top_k(queries, K, **kwargs), exact.row_top_k(queries, K, **kwargs)
    )


def test_reloaded_engine_installs_gen_tier(problem, tmp_path):
    """The persisted gen tier is installed at load time, not re-quantized."""
    queries, probes, theta = problem
    engine = RetrievalEngine("lemp:LI", seed=0, gen_dtype="f16").fit(probes)
    reference = engine.above_theta(queries, theta)
    engine.save(tmp_path / "index")
    for mode in (None, "r"):
        loaded = RetrievalEngine.load(tmp_path / "index", mmap_mode=mode)
        assert loaded.gen_dtype == "f16"
        assert "f16" in loaded.retriever.store._screen_tiers
        assert_above_equal(loaded.above_theta(queries, theta), reference)


def test_reloaded_engine_shares_tier_with_screening(problem, tmp_path):
    """gen_dtype == screen_dtype: one tier travels once and serves both."""
    queries, probes, theta = problem
    engine = RetrievalEngine(
        "lemp:LI", seed=0, gen_dtype="int8", screen_dtype="int8"
    ).fit(probes)
    reference = engine.above_theta(queries, theta)
    engine.save(tmp_path / "index")
    state = np.load(tmp_path / "index" / "index.npz")
    assert "state.screen_data" in state.files
    assert "state.gen_data" not in state.files  # shared tier: stored once
    loaded = RetrievalEngine.load(tmp_path / "index")
    assert loaded.gen_dtype == "int8" and loaded.screen_dtype == "int8"
    assert_above_equal(loaded.above_theta(queries, theta), reference)


def test_engine_gen_dtype_property_round_trip(problem):
    _, probes, _ = problem
    engine = RetrievalEngine("lemp:LI", seed=0).fit(probes)
    assert engine.gen_dtype is None
    engine.gen_dtype = "f16"
    assert engine.gen_dtype == "f16"
    assert engine._construct_kwargs["gen_dtype"] == "f16"
    engine.gen_dtype = None
    assert engine.gen_dtype is None


def test_plan_reports_gen_dtype(problem):
    queries, probes, theta = problem
    engine = RetrievalEngine("lemp:LI", seed=0, gen_dtype="f16").fit(probes)
    plan = engine.explain(queries, theta=theta)
    assert plan.gen_dtype == "f16"
    assert "generation    : f16 compressed index scans" in plan.describe()
    engine.gen_dtype = None
    assert engine.explain(queries, theta=theta).gen_dtype is None


# --------------------------------------------- adversarial feasible-region edges


def _near_edge_problem(rank, theta, ulp_offsets, background, seed):
    """Probes whose exact scores sit ``offset`` ULPs from θ, plus background.

    The query is a unit vector ``q``; each near-edge probe is ``s·q + c·w``
    with ``w ⊥ q``, so its inner product with ``q`` is ``s`` up to
    representation — placed within a few ULPs of θ on either side.  A probe
    whose cosine ties θ_p is the extreme point of *every* focus coordinate's
    feasible region ``[L_f, U_f]``, so these probes exercise the widened
    region edges (and the widened L2AP / INCR / TA bounds) at floating-point
    resolution.  Background probes sit far below θ so the scans genuinely
    prune.
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
    rank=st.integers(min_value=4, max_value=16),
    theta=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
    ulp_offsets=st.lists(
        st.integers(min_value=-8, max_value=8), min_size=12, max_size=32
    ),
    dtype_name=st.sampled_from(SCREEN_DTYPES),
    algorithm=st.sampled_from(ALGORITHMS),
    state=st.sampled_from(ENGINE_STATES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=80, deadline=None)
def test_widened_regions_never_drop_a_near_edge_candidate(
    rank, theta, ulp_offsets, dtype_name, algorithm, state, seed
):
    """Scores within ±8 ULPs of θ: compressed output == exact output.

    Every widened structure (sorted-list feasible regions, INCR partial
    bounds, TA stopping rule, L2AP reduction/prefix bounds, BLSH signature
    build) must keep a probe that ties or barely clears θ — across dtypes,
    algorithms, and engine lifecycles (warm / updated / reloaded eager and
    mmap).
    """
    queries, probes = _near_edge_problem(
        rank, theta, ulp_offsets, background=40, seed=seed
    )
    exact, compressed = _lifecycle_pair(algorithm, dtype_name, probes, state)
    reference = exact.above_theta(queries, theta)
    result = compressed.above_theta(queries, theta)
    assert_above_equal(result, reference)
    offsets = np.asarray(ulp_offsets)
    if state != "updated" and (offsets > 0).any():
        # The band straddles θ, so the run is non-trivial ("updated" engines
        # may have removed some of the planted rows).
        assert reference.num_results > 0


@given(
    rank=st.integers(min_value=4, max_value=12),
    duplicates=st.integers(min_value=2, max_value=5),
    dtype_name=st.sampled_from(SCREEN_DTYPES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_top_k_with_exact_ties_is_generation_invariant(rank, duplicates, dtype_name, seed):
    """Duplicate probe rows force exact score ties at the k-th boundary."""
    base = make_factors(30, rank=rank, length_cov=1.0, seed=seed)
    probes = np.vstack([base] + [base[:10]] * duplicates)  # exact duplicates
    queries = make_factors(12, rank=rank, length_cov=1.0, seed=seed + 1)
    plain = Lemp(algorithm="LI", seed=0).fit(probes)
    compressed = Lemp(algorithm="LI", seed=0, gen_dtype=dtype_name).fit(probes)
    assert_topk_equal(compressed.row_top_k(queries, K), plain.row_top_k(queries, K))
