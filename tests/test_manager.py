"""Tests for the multi-tenant :class:`~repro.serve.EngineManager`.

The central claims under test:

* **Byte identity per tenant.**  Results served through the manager are
  byte-identical to the same calls on a standalone quiesced engine loaded
  from the same index — including while the tenant cycles through LRU
  eviction/reload, and while ``partial_fit`` / ``remove`` churn runs
  concurrently with the query swarm (match-either: each request equals the
  full pre- or full post-mutation quiesced result, never a blend).
* **Residency is LRU and row-budgeted.**  Under a budget smaller than the
  combined tenants, acquiring one tenant evicts the least-recently-used
  other; an oversized tenant still loads alone; evicting a mutated tenant
  persists it first (atomically), so reloads — and standalone loaders —
  see the mutation.
* **Stats survive eviction.**  Admission counters and tuning-cache hits
  fold into the tenant record at eviction, so lifetime stats accumulate
  across residency cycles.
"""

from __future__ import annotations

import asyncio
import io

import numpy as np
import pytest

from repro.engine.facade import RetrievalEngine
from repro.exceptions import (
    InvalidParameterError,
    PersistenceError,
    UnknownTenantError,
)
from repro.serve import EngineManager, UnknownTenantError as ExportedUnknownTenant
from tests.conftest import make_factors

K = 5
ROWS_A = 300
ROWS_B = 200
RANK = 12


@pytest.fixture(scope="module")
def tenant_dirs(tmp_path_factory):
    """Two saved LEMP-LI indexes (A: 300 rows, B: 200 rows), warm for K."""
    root = tmp_path_factory.mktemp("tenants")
    queries = make_factors(32, rank=RANK, length_cov=1.0, seed=50)
    for name, rows, seed in (("A", ROWS_A, 51), ("B", ROWS_B, 52)):
        probes = make_factors(rows, rank=RANK, length_cov=1.0, seed=seed)
        engine = RetrievalEngine("lemp:LI").fit(probes)
        engine.row_top_k(queries, K)
        engine.save(root / name)
    return {"A": root / "A", "B": root / "B"}


@pytest.fixture()
def queries():
    return make_factors(8, rank=RANK, length_cov=1.0, seed=53)


def assert_topk_equal(expected, actual):
    assert np.array_equal(expected.indices, actual.indices)
    assert np.array_equal(expected.scores, actual.scores)


def topk_equal(expected, actual) -> bool:
    return bool(np.array_equal(expected.indices, actual.indices)
                and np.array_equal(expected.scores, actual.scores))


# --------------------------------------------------------------- basic serving


def test_manager_serves_both_tenants_byte_identical(tenant_dirs, queries):
    references = {
        name: RetrievalEngine.load(path).row_top_k(queries, K)
        for name, path in tenant_dirs.items()
    }

    async def drive():
        async with EngineManager(tenant_dirs) as manager:
            served_a = await manager.row_top_k("A", queries, K)
            served_b = await manager.row_top_k("B", queries, K)
            return served_a, served_b, manager.stats()

    served_a, served_b, stats = asyncio.run(drive())
    assert_topk_equal(references["A"], served_a)
    assert_topk_equal(references["B"], served_b)
    for name in ("A", "B"):
        assert stats[name]["admitted"] == 1
        assert stats[name]["rows_served"] == queries.shape[0]
        assert stats[name]["loads"] == 1
        assert stats[name]["rank"] == RANK
    assert stats["A"]["rows"] == ROWS_A
    assert stats["B"]["rows"] == ROWS_B


def test_above_theta_routes_through_manager(tenant_dirs, queries):
    theta = 0.5
    reference = RetrievalEngine.load(tenant_dirs["A"]).above_theta(queries, theta)

    async def drive():
        async with EngineManager(tenant_dirs) as manager:
            return await manager.above_theta("A", queries, theta)

    served = asyncio.run(drive())
    assert np.array_equal(reference.query_ids, served.query_ids)
    assert np.array_equal(reference.probe_ids, served.probe_ids)
    assert np.array_equal(reference.scores, served.scores)


# ---------------------------------------------------------------- LRU residency


def test_budget_forces_lru_eviction_and_reload(tenant_dirs, queries):
    reference_a = RetrievalEngine.load(tenant_dirs["A"]).row_top_k(queries, K)
    reference_b = RetrievalEngine.load(tenant_dirs["B"]).row_top_k(queries, K)

    async def drive():
        # Budget fits either tenant alone, never both (300 + 200 > 350).
        async with EngineManager(tenant_dirs, max_resident_rows=350) as manager:
            snapshots = []
            for _ in range(2):
                served_a = await manager.row_top_k("A", queries, K)
                snapshots.append(("A", served_a, manager.resident_tenants))
                served_b = await manager.row_top_k("B", queries, K)
                snapshots.append(("B", served_b, manager.resident_tenants))
            assert manager.resident_rows <= 350
            return snapshots, manager.stats()

    snapshots, stats = asyncio.run(drive())
    for name, served, resident in snapshots:
        assert_topk_equal(reference_a if name == "A" else reference_b, served)
        assert resident == (name,)  # the other tenant was evicted to fit
    # A: load, evict, reload, evict-by-final-B (manager close not counted).
    assert stats["A"]["loads"] == 2
    assert stats["A"]["evictions"] >= 1
    assert stats["B"]["loads"] == 2
    assert stats["B"]["evictions"] >= 1


def test_oversized_tenant_still_loads_alone(tenant_dirs, queries):
    reference = RetrievalEngine.load(tenant_dirs["A"]).row_top_k(queries, K)

    async def drive():
        async with EngineManager(tenant_dirs, max_resident_rows=50) as manager:
            served = await manager.row_top_k("A", queries, K)
            return served, manager.resident_tenants

    served, resident = asyncio.run(drive())
    assert_topk_equal(reference, served)
    assert resident == ("A",)


def test_stats_fold_across_eviction_cycles(tenant_dirs, queries):
    async def drive():
        async with EngineManager(tenant_dirs, max_resident_rows=350) as manager:
            for _ in range(3):
                await manager.row_top_k("A", queries, K)
                await manager.row_top_k("B", queries, K)
            return manager.stats("A")

    stats = asyncio.run(drive())
    assert stats["admitted"] == 3
    assert stats["rows_served"] == 3 * queries.shape[0]
    # The warm persisted tuning cache keeps hitting across reloads.
    assert stats["tuning_cache"]["hits"] >= 3
    assert stats["tuning_cache"]["hit_rate"] == 1.0


# ------------------------------------------------------------ mutation + churn


def test_mutation_is_persisted_by_eviction(tenant_dirs, queries, tmp_path):
    # Work on copies: this test rewrites the index directories.
    import shutil

    dirs = {}
    for name, path in tenant_dirs.items():
        dirs[name] = tmp_path / name
        shutil.copytree(path, dirs[name])
    extra = make_factors(40, rank=RANK, length_cov=1.0, seed=54)
    reference = RetrievalEngine.load(dirs["A"])
    reference.partial_fit(extra)
    expected = reference.row_top_k(queries, K)

    async def drive():
        async with EngineManager(dirs, max_resident_rows=400) as manager:
            await manager.partial_fit("A", extra)
            stats = manager.stats("A")
            assert stats["dirty"] and stats["mutations"] == 1
            assert stats["rows"] == ROWS_A + 40
            # Touching B evicts the dirty A (340 + 200 > 400) → persist.
            await manager.row_top_k("B", queries, K)
            assert manager.stats("A")["resident"] is False
            assert manager.stats("A")["dirty"] is False
            served = await manager.row_top_k("A", queries, K)  # reload from disk
            return served

    served = asyncio.run(drive())
    assert_topk_equal(expected, served)
    # A standalone loader sees the persisted mutation too.
    reloaded = RetrievalEngine.load(dirs["A"], mmap_mode="r")
    assert int(reloaded.num_probes) == ROWS_A + 40
    assert_topk_equal(expected, reloaded.row_top_k(queries, K))


def test_manager_close_persists_dirty_tenant(tenant_dirs, queries, tmp_path):
    import shutil

    path = tmp_path / "A"
    shutil.copytree(tenant_dirs["A"], path)
    removed = np.arange(25)
    reference = RetrievalEngine.load(path)
    reference.remove(removed)
    expected = reference.row_top_k(queries, K)

    async def drive():
        async with EngineManager({"A": path}) as manager:
            await manager.remove("A", removed)
            assert manager.stats("A")["rows"] == ROWS_A - 25

    asyncio.run(drive())
    reloaded = RetrievalEngine.load(path)
    assert int(reloaded.num_probes) == ROWS_A - 25
    assert_topk_equal(expected, reloaded.row_top_k(queries, K))


class _Crash(Exception):
    """Stands in for the process dying at one step of a persist."""


def _crash_after(monkeypatch, step: int) -> list[int]:
    """Make the ``step``-th file-system step of a persist raise once it is done.

    Counted steps: the staging save, every ``os.rename`` / ``os.symlink`` /
    ``os.replace`` and every tree removal.  Returns a one-element list that
    counts the steps taken.
    """
    import os
    import shutil

    taken = [0]

    def counted(function):
        def step_then_maybe_crash(*args, **kwargs):
            result = function(*args, **kwargs)
            taken[0] += 1
            if taken[0] == step:
                raise _Crash(f"crash after step {step}: {function.__name__}")
            return result
        return step_then_maybe_crash

    monkeypatch.setattr(RetrievalEngine, "save", counted(RetrievalEngine.save))
    for name in ("rename", "symlink", "replace"):
        monkeypatch.setattr(os, name, counted(getattr(os, name)))
    monkeypatch.setattr(shutil, "rmtree", counted(shutil.rmtree))
    return taken


@pytest.mark.parametrize("earlier_persists", [0, 1])
def test_interrupted_persist_reloads_old_or_new_index(tenant_dirs, queries, tmp_path,
                                                       earlier_persists):
    """Crash a persist after each of its steps: a fresh manager on the same
    path must serve either the complete old index or the complete new one.
    ``earlier_persists=1`` covers the tenant path already being a versioned
    link; 0 covers the first persist of a directory written by ``save``."""
    import shutil

    extras = [make_factors(30, rank=RANK, length_cov=1.0, seed=60 + i) for i in range(2)]
    step = 0
    while True:
        step += 1
        path = tmp_path / f"crash-{step}" / "A"
        shutil.copytree(tenant_dirs["A"], path)

        async def mutate(extra, crash_step=None):
            async with EngineManager({"A": path}) as manager:
                await manager.partial_fit("A", extra)
                if crash_step is not None:
                    with pytest.MonkeyPatch.context() as patch:
                        taken = _crash_after(patch, crash_step)
                        try:
                            await manager.aclose()
                        except _Crash:
                            return True
                        assert taken[0] < crash_step
                        return False
            return False

        for extra in extras[:earlier_persists]:
            asyncio.run(mutate(extra))
        old = RetrievalEngine.load(path)
        new = RetrievalEngine.load(path)
        new.partial_fit(extras[earlier_persists])
        expected = {int(old.num_probes): old.row_top_k(queries, K),
                    int(new.num_probes): new.row_top_k(queries, K)}

        crashed = asyncio.run(mutate(extras[earlier_persists], crash_step=step))

        async def reload():
            async with EngineManager({"A": path}) as manager:
                return manager.stats("A")["rows"], await manager.row_top_k("A", queries, K)

        rows, served = asyncio.run(reload())
        assert rows in expected
        assert_topk_equal(expected[rows], served)
        if not crashed:
            # Every step ran: the new index is committed and nothing is left over.
            assert rows == int(new.num_probes)
            assert {entry.name for entry in path.parent.iterdir()} == {
                "A", f".A.v{earlier_persists + 1}"}
            break
    assert step > 4


def test_concurrent_churn_with_lru_matches_quiesced_references(tenant_dirs, tmp_path):
    """The acceptance scenario in miniature: two tenants under a budget that
    forces evict/reload churn, a query swarm on both, and partial_fit racing
    the swarm on A — every result matches a quiesced reference state."""
    import shutil

    dirs = {}
    for name, path in tenant_dirs.items():
        dirs[name] = tmp_path / name
        shutil.copytree(path, dirs[name])
    blocks = [make_factors(2, rank=RANK, length_cov=1.0, seed=60 + i)
              for i in range(8)]
    extra = make_factors(30, rank=RANK, length_cov=1.0, seed=59)

    reference_a = RetrievalEngine.load(dirs["A"])
    pre = [reference_a.row_top_k(block, K) for block in blocks]
    reference_a.partial_fit(extra)
    post = [reference_a.row_top_k(block, K) for block in blocks]
    reference_b = RetrievalEngine.load(dirs["B"])
    stable = [reference_b.row_top_k(block, K) for block in blocks]

    async def drive():
        async with EngineManager(
            dirs, max_resident_rows=400, max_batch_rows=4
        ) as manager:
            async def client(name, block):
                return name, await manager.row_top_k(name, block, K)

            async def mutator():
                await asyncio.sleep(0.002)
                await manager.partial_fit("A", extra)

            jobs = [client("A", block) for block in blocks]
            jobs += [client("B", block) for block in blocks]
            results, _ = await asyncio.gather(asyncio.gather(*jobs), mutator())
            return results, manager.stats()

    results, stats = asyncio.run(drive())
    served_a = [result for name, result in results[:len(blocks)]]
    served_b = [result for name, result in results[len(blocks):]]
    for expected_pre, expected_post, actual in zip(pre, post, served_a):
        assert topk_equal(expected_pre, actual) or topk_equal(expected_post, actual)
    for expected, actual in zip(stable, served_b):
        assert topk_equal(expected, actual)
    assert stats["A"]["mutations"] == 1
    # The interleaved A/B swarm under the shared budget forced LRU churn.
    assert stats["A"]["evictions"] + stats["B"]["evictions"] >= 1


# ------------------------------------------------------------------- contracts


def test_unknown_tenant_raises_typed_error(tenant_dirs, queries):
    assert ExportedUnknownTenant is UnknownTenantError

    async def drive():
        async with EngineManager(tenant_dirs) as manager:
            with pytest.raises(UnknownTenantError, match="registered tenants"):
                await manager.row_top_k("nope", queries, K)
            with pytest.raises(UnknownTenantError):
                manager.stats("nope")

    asyncio.run(drive())


def test_manager_rejects_bad_configuration(tenant_dirs, tmp_path):
    with pytest.raises(InvalidParameterError, match="at least one tenant"):
        EngineManager({})
    with pytest.raises(InvalidParameterError, match="duplicate"):
        EngineManager([("A", tenant_dirs["A"]), ("A", tenant_dirs["B"])])
    with pytest.raises(PersistenceError, match="meta.json"):
        EngineManager({"A": tmp_path / "nowhere"})
    with pytest.raises(InvalidParameterError, match="max_resident_rows"):
        EngineManager(tenant_dirs, max_resident_rows=0)
    with pytest.raises(InvalidParameterError, match="mmap_mode"):
        EngineManager(tenant_dirs, mmap_mode="r+")


def test_unstarted_manager_rejects_requests(tenant_dirs, queries):
    manager = EngineManager(tenant_dirs)
    with pytest.raises(InvalidParameterError, match="not started"):
        asyncio.run(manager.row_top_k("A", queries, K))


def test_activate_reports_rank_and_residency(tenant_dirs):
    async def drive():
        async with EngineManager(tenant_dirs) as manager:
            stats = await manager.activate("B")
            return stats, manager.resident_tenants

    stats, resident = asyncio.run(drive())
    assert stats["resident"] is True
    assert stats["rank"] == RANK
    assert resident == ("B",)


# -------------------------------------------------------------------------- CLI


def test_cli_serve_multi_tenant_reports_per_tenant_stats(tenant_dirs):
    from repro.cli import main

    buffer = io.StringIO()
    code = main(
        ["serve", "--index", f"A={tenant_dirs['A']}", "--index", f"B={tenant_dirs['B']}",
         "--max-resident-rows", "350", "--clients", "4", "--requests", "2",
         "--rows", "2"],
        out=buffer,
    )
    output = buffer.getvalue()
    assert code == 0
    assert "tenant A" in output
    assert "tenant B" in output
    assert "evictions=" in output
    assert "latency p50 (ms)" in output


def test_cli_serve_multi_tenant_rejects_workers(tenant_dirs):
    from repro.cli import main

    buffer = io.StringIO()
    code = main(
        ["serve", "--index", f"A={tenant_dirs['A']}",
         "--index", f"B={tenant_dirs['B']}", "--workers", "2"],
        out=buffer,
    )
    assert code == 2
    assert "single-tenant" in buffer.getvalue()
