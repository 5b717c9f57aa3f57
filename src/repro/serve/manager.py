"""Multi-tenant engine manager: named indexes, LRU residency, live ingest.

:class:`EngineManager` turns the single-index :class:`~repro.serve.ServingEngine`
into a service that fronts **many named persisted indexes** ("tenants") at
once, under a bounded memory footprint:

* **Residency is LRU and row-budgeted.**  A tenant's engine is loaded on
  demand (via the existing memory-mapped persistence path) the first time a
  request names it, and stays resident until the sum of resident probe rows
  would exceed ``max_resident_rows`` — then the least-recently-used tenants
  are evicted back to disk to make room.  Eviction quiesces the tenant's
  serving engine (in-flight batches finish and answer their callers), and a
  tenant mutated since its last save is **persisted first**, so reloads
  always see the latest index.  Persisting writes a new versioned directory
  and then swaps the tenant path — a symbolic link to the current version —
  with one ``os.replace``, so a crash at any point leaves either the old or
  the new index, never a mix, and memory-mapped arrays of other loaders
  stay valid.
* **Mutations interleave safely with serving.**  :meth:`partial_fit` /
  :meth:`remove` run on the tenant's single solver thread via
  :meth:`ServingEngine.mutate`, *between* micro-batches — never inside one.
  Every request therefore sees either the full pre-mutation or the full
  post-mutation index, and its result is byte-identical to the same call on
  a quiesced engine in that state.
* **Per-tenant stats survive eviction.**  Admission counters
  (admitted / shed / timed-out / rows served) and the tuning-cache hit rate
  are folded into the tenant record whenever its engine is evicted, so
  :meth:`stats` reports lifetime totals regardless of how often the tenant
  cycled through residency.

Residency changes are serialised by one asyncio lock; request submission
happens outside it, so queries on resident tenants never wait on a reload.
A request can race an eviction of its own tenant — the serving engine then
sheds it with :class:`~repro.exceptions.ServingError` (see ``aclose``), and
the manager transparently re-acquires residency and retries.

Typical use::

    async with EngineManager(
        {"movies": "idx/movies", "songs": "idx/songs"},
        max_resident_rows=500_000,
    ) as manager:
        top = await manager.row_top_k("movies", queries, 10)
        await manager.partial_fit("movies", fresh_factor_rows)
        print(manager.stats("movies")["tuning_cache"]["hit_rate"])

Loading and persisting a tenant are blocking disk I/O performed on the
event loop (bounded by index size); mutations and solves always run off
the loop on the tenant's solver thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.facade import RetrievalEngine
from repro.exceptions import (
    InvalidParameterError,
    PersistenceError,
    RequestTimeoutError,
    ServiceOverloadedError,
    ServingError,
    UnknownTenantError,
)
from repro.serve.batcher import DEFAULT_MAX_BATCH_ROWS
from repro.serve.engine import (
    DEFAULT_FLUSH_LOG_LIMIT,
    DEFAULT_MAX_PENDING_ROWS,
    ServingEngine,
)
from repro.utils.validation import require_positive, require_positive_int


def _versions(path: Path) -> list[tuple[int, Path]]:
    """Complete index versions the manager wrote for tenant ``path``, oldest first."""
    prefix = f".{path.name}.v"
    found = []
    for entry in path.parent.glob(f"{prefix}*"):
        number = entry.name[len(prefix):]
        if number.isdigit() and entry.is_dir() and not entry.is_symlink():
            found.append((int(number), entry))
    return sorted(found)


def _point(path: Path, version: Path) -> None:
    """Make ``path`` a symbolic link to ``version`` with one atomic rename."""
    link = path.parent / f".{path.name}.link"
    if link.is_symlink() or link.exists():
        link.unlink()
    os.symlink(version.name, link)
    os.replace(link, path)


def _recover(path: Path) -> None:
    """Re-link a tenant whose persist stopped after moving the original aside.

    The newest complete version wins; it holds either the index that was
    being replaced or its successor, each written in full.
    """
    if path.exists() or path.is_symlink():
        return
    versions = _versions(path)
    if versions:
        _point(path, versions[-1][1])


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's entries (new files, renames) to disk."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _read_index_rows(path: Path) -> int:
    """Probe-row count of a saved index, read cheaply from its metadata."""
    meta_path = path / "meta.json"
    if not meta_path.is_file():
        raise PersistenceError(f"{path} is not a saved index (missing meta.json)")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as error:
        raise PersistenceError(f"corrupt index metadata in {meta_path}: {error}") from error
    return int(meta.get("num_probes", 0))


@dataclass
class _Tenant:
    """One named index and its residency / lifetime-stats state."""

    name: str
    path: Path
    #: Probe rows charged against the residency budget (live count while
    #: resident; last-known count — metadata or fold-time — otherwise).
    rows: int
    engine: RetrievalEngine | None = None
    serving: ServingEngine | None = None
    #: Mutated since the last save — evicting must persist first.
    dirty: bool = False
    #: LRU clock value of the last acquire.
    last_used: int = 0
    rank: int | None = None
    loads: int = 0
    evictions: int = 0
    mutations: int = 0
    #: Lifetime counters folded in at eviction (live engines add on top).
    admitted: int = 0
    shed: int = 0
    timed_out: int = 0
    rows_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    extra: dict = field(default_factory=dict)


class EngineManager:
    """Serve many named persisted indexes with LRU residency and live ingest.

    Parameters
    ----------
    tenants:
        The named indexes to serve: a ``{name: path}`` mapping or an
        iterable of ``(name, path)`` pairs, each path a directory written
        by :meth:`~repro.engine.facade.RetrievalEngine.save`.  Metadata is
        read eagerly so a missing index fails here, not mid-traffic.
    max_resident_rows:
        Residency budget: the sum of probe rows across resident tenants
        that may be held in memory at once (``None`` = unlimited).  A
        single tenant larger than the budget still loads alone — the
        budget bounds *co*-residency, mirroring the serving engine's
        oversized-request rule.
    mmap_mode:
        Forwarded to :meth:`RetrievalEngine.load` per tenant (default
        ``"r"``: memory-mapped, so evict/reload cycles stay cheap).
    max_batch_rows / max_pending_rows / default_timeout / flush_log_limit:
        Per-tenant :class:`~repro.serve.ServingEngine` knobs, applied to
        every tenant's front-end: the row budget that flushes a group at
        once, the admission bound, the default per-request deadline and the
        flush-log cap.  There is no delay knob; each tenant's solver takes
        a request as soon as it is idle.

    Use as an async context manager (or call :meth:`start` /
    :meth:`aclose` explicitly).  Closing the manager quiesces every
    resident tenant and persists the mutated ones.
    """

    def __init__(self, tenants, *,
                 max_resident_rows: int | None = None,
                 mmap_mode: str | None = "r",
                 max_batch_rows: int = DEFAULT_MAX_BATCH_ROWS,
                 max_pending_rows: int = DEFAULT_MAX_PENDING_ROWS,
                 default_timeout: float | None = None,
                 flush_log_limit: int | None = DEFAULT_FLUSH_LOG_LIMIT) -> None:
        """Register the tenants (metadata read eagerly); no engine is loaded yet."""
        items = list(tenants.items()) if isinstance(tenants, dict) else list(tenants)
        if not items:
            raise InvalidParameterError("EngineManager needs at least one tenant")
        self._tenants: dict[str, _Tenant] = {}
        for name, path in items:
            name = str(name)
            if not name:
                raise InvalidParameterError("tenant names must be non-empty strings")
            if name in self._tenants:
                raise InvalidParameterError(f"duplicate tenant name {name!r}")
            directory = Path(path)
            _recover(directory)
            self._tenants[name] = _Tenant(
                name=name, path=directory, rows=_read_index_rows(directory)
            )
        if max_resident_rows is not None:
            max_resident_rows = require_positive_int(max_resident_rows, "max_resident_rows")
        self.max_resident_rows = max_resident_rows
        if mmap_mode not in (None, "r"):
            raise InvalidParameterError(
                f"mmap_mode must be None (eager loads) or 'r' (read-only maps), "
                f"got {mmap_mode!r}"
            )
        self._mmap_mode = mmap_mode
        if default_timeout is not None:
            require_positive(default_timeout, "default_timeout")
        self._serving_kwargs = dict(
            max_batch_rows=require_positive_int(max_batch_rows, "max_batch_rows"),
            max_pending_rows=require_positive_int(max_pending_rows, "max_pending_rows"),
            default_timeout=default_timeout,
            flush_log_limit=(
                None if flush_log_limit is None
                else require_positive_int(flush_log_limit, "flush_log_limit")
            ),
        )
        self._lock: asyncio.Lock | None = None
        self._tick = 0

    # ------------------------------------------------------------- life cycle

    async def start(self) -> "EngineManager":
        """Bind to the running event loop; tenants still load on demand."""
        if self._lock is None:
            self._lock = asyncio.Lock()
        return self

    async def aclose(self) -> None:
        """Quiesce every resident tenant; persist the mutated ones."""
        if self._lock is None:
            return
        async with self._lock:
            for record in self._tenants.values():
                if record.serving is not None:
                    await self._evict(record, count=False)
        self._lock = None

    async def __aenter__(self) -> "EngineManager":
        """Async context entry: :meth:`start`."""
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        """Async context exit: :meth:`aclose`."""
        await self.aclose()

    # -------------------------------------------------------------- residency

    @property
    def tenants(self) -> tuple[str, ...]:
        """All registered tenant names, in registration order."""
        return tuple(self._tenants)

    @property
    def resident_tenants(self) -> tuple[str, ...]:
        """Resident tenant names, least-recently-used first."""
        resident = [r for r in self._tenants.values() if r.serving is not None]
        return tuple(r.name for r in sorted(resident, key=lambda r: r.last_used))

    @property
    def resident_rows(self) -> int:
        """Probe rows currently held in memory across resident tenants."""
        return sum(
            int(record.engine.num_probes)
            for record in self._tenants.values()
            if record.engine is not None
        )

    def _require(self, name: str) -> _Tenant:
        record = self._tenants.get(name)
        if record is None:
            raise UnknownTenantError(
                f"unknown tenant {name!r}; registered tenants: {sorted(self._tenants)}"
            )
        return record

    async def _acquire(self, name: str) -> _Tenant:
        """Touch a tenant's LRU slot and make it resident (loading if needed)."""
        record = self._require(name)
        if self._lock is None:
            raise InvalidParameterError(
                "EngineManager is not started; use 'async with EngineManager(...)' "
                "or call await manager.start() first"
            )
        async with self._lock:
            self._tick += 1
            record.last_used = self._tick
            if record.serving is not None:
                return record
            await self._make_room(record.rows, active=record)
            engine = RetrievalEngine.load(record.path, mmap_mode=self._mmap_mode)
            serving = ServingEngine(engine, **self._serving_kwargs)
            await serving.start()
            record.engine = engine
            record.serving = serving
            record.loads += 1
            record.rows = int(engine.num_probes)
            record.rank = engine.rank
            return record

    async def _make_room(self, incoming_rows: int, active: _Tenant) -> None:
        """Evict LRU tenants until ``incoming_rows`` fit under the budget.

        Idle tenants (no pending rows) are preferred victims; when every
        candidate is busy the least-recently-used one is quiesced anyway.
        With no other resident tenant left, an over-budget tenant still
        loads alone.
        """
        if self.max_resident_rows is None:
            return
        while self.resident_rows + incoming_rows > self.max_resident_rows:
            candidates = [
                record for record in self._tenants.values()
                if record.serving is not None and record is not active
            ]
            if not candidates:
                return
            idle = [r for r in candidates if r.serving.pending_rows == 0]
            victim = min(idle or candidates, key=lambda record: record.last_used)
            await self._evict(victim)

    async def _evict(self, record: _Tenant, *, count: bool = True) -> None:
        """Quiesce one tenant, fold its stats, persist if dirty, free the engine."""
        serving, engine = record.serving, record.engine
        record.serving = None
        record.engine = None
        await serving.aclose()
        self._fold(record, serving, engine)
        record.rows = int(engine.num_probes)
        if record.dirty:
            self._persist(record, engine)
        if count:
            record.evictions += 1

    def _persist(self, record: _Tenant, engine: RetrievalEngine) -> None:
        """Write a mutated engine back to the tenant's path, atomically.

        The index is saved to a staging directory, flushed, and renamed to
        the next version ``.<name>.v<N>`` beside the tenant path, so every
        version directory is complete.  The tenant path is a symbolic link
        to the current version, and one ``os.replace`` of that link commits
        the new index.  A directory written by ``RetrievalEngine.save`` is
        first moved aside as version 0; a crash right after that move leaves
        no tenant path, and :func:`_recover` — run when a manager registers
        the tenant — links the newest version back.  Superseded versions are
        deleted after the commit: readers that memory-mapped their files
        keep valid mappings (the inodes live until unmapped), and new loads
        see the new index.
        """
        path = record.path
        versions = _versions(path)
        staging = path.parent / f".{path.name}.staging"
        if staging.exists():
            shutil.rmtree(staging)
        engine.save(staging)
        for member in staging.iterdir():
            with open(member, "rb") as handle:
                os.fsync(handle.fileno())
        _fsync_directory(staging)
        version = path.parent / f".{path.name}.v{versions[-1][0] + 1 if versions else 1}"
        os.rename(staging, version)
        if not path.is_symlink():
            original = path.parent / f".{path.name}.v0"
            if original.exists():
                shutil.rmtree(original)
            os.rename(path, original)
            versions.append((0, original))
        _point(path, version)
        _fsync_directory(path.parent)
        for _, superseded in versions:
            shutil.rmtree(superseded, ignore_errors=True)
        record.dirty = False

    def _fold(self, record: _Tenant, serving: ServingEngine,
              engine: RetrievalEngine) -> None:
        """Accumulate a quiesced engine's counters into the tenant record."""
        record.admitted += serving.requests_admitted
        record.shed += serving.requests_shed
        record.timed_out += serving.requests_timed_out
        record.rows_served += serving.rows_served
        cache = getattr(engine, "tuning_cache", None)
        if cache is not None:
            record.cache_hits += int(cache.hits)
            record.cache_misses += int(cache.misses)

    async def activate(self, name: str) -> dict:
        """Make one tenant resident now (budget applies) and return its stats."""
        await self._acquire(name)
        return self.stats(name)

    # --------------------------------------------------------------- requests

    async def above_theta(self, name: str, queries, theta: float, *,
                          timeout: float | None = None):
        """Solve Above-θ on one tenant (micro-batched with its other callers)."""
        while True:
            serving = (await self._acquire(name)).serving
            try:
                return await serving.above_theta(queries, theta, timeout=timeout)
            except (ServiceOverloadedError, RequestTimeoutError):
                raise
            except ServingError:
                continue  # lost a race with this tenant's eviction; reload

    async def row_top_k(self, name: str, queries, k: int, *,
                        timeout: float | None = None):
        """Solve Row-Top-k on one tenant (micro-batched with its other callers)."""
        while True:
            serving = (await self._acquire(name)).serving
            try:
                return await serving.row_top_k(queries, k, timeout=timeout)
            except (ServiceOverloadedError, RequestTimeoutError):
                raise
            except ServingError:
                continue  # lost a race with this tenant's eviction; reload

    # -------------------------------------------------------------- mutations

    async def partial_fit(self, name: str, new_probes) -> "EngineManager":
        """Insert probe rows into one tenant's live index, between batches.

        The tenant is marked dirty *before* the mutation is awaited: if an
        eviction overlaps the mutation, the solver-thread handoff still
        applies it before the quiesce completes, and the dirty flag makes
        the eviction persist it.  (Persisting an unmutated index on a
        failed mutation is harmless.)
        """
        while True:
            record = await self._acquire(name)
            serving = record.serving
            record.dirty = True
            try:
                await serving.mutate(record.engine.partial_fit, new_probes)
            except (ServiceOverloadedError, RequestTimeoutError):
                raise
            except ServingError:
                continue  # lost a race with this tenant's eviction; reload
            record.mutations += 1
            if record.engine is not None:
                record.rows = int(record.engine.num_probes)
            return self

    async def remove(self, name: str, probe_ids) -> "EngineManager":
        """Remove probe rows (by current id) from one tenant, between batches."""
        while True:
            record = await self._acquire(name)
            serving = record.serving
            record.dirty = True
            try:
                await serving.mutate(record.engine.remove, probe_ids)
            except (ServiceOverloadedError, RequestTimeoutError):
                raise
            except ServingError:
                continue  # lost a race with this tenant's eviction; reload
            record.mutations += 1
            if record.engine is not None:
                record.rows = int(record.engine.num_probes)
            return self

    # ------------------------------------------------------------------ stats

    def stats(self, name: str | None = None) -> dict:
        """Lifetime per-tenant stats (one tenant's dict, or ``{name: dict}``).

        Counters cover the tenant's whole service life, across every
        evict/reload cycle: ``admitted`` / ``shed`` / ``timed_out`` /
        ``rows_served`` admission totals and the tuning cache's cumulative
        ``hit_rate`` (``None`` before any lookup).
        """
        if name is not None:
            return self._tenant_stats(self._require(name))
        return {
            tenant_name: self._tenant_stats(record)
            for tenant_name, record in self._tenants.items()
        }

    def _tenant_stats(self, record: _Tenant) -> dict:
        admitted, shed = record.admitted, record.shed
        timed_out, rows_served = record.timed_out, record.rows_served
        cache_hits, cache_misses = record.cache_hits, record.cache_misses
        pending = 0
        if record.serving is not None:
            serving, engine = record.serving, record.engine
            admitted += serving.requests_admitted
            shed += serving.requests_shed
            timed_out += serving.requests_timed_out
            rows_served += serving.rows_served
            pending = serving.pending_rows
            cache = getattr(engine, "tuning_cache", None)
            if cache is not None:
                cache_hits += int(cache.hits)
                cache_misses += int(cache.misses)
        lookups = cache_hits + cache_misses
        return {
            "name": record.name,
            "path": str(record.path),
            "resident": record.serving is not None,
            "rows": int(record.rows),
            "rank": record.rank,
            "dirty": record.dirty,
            "loads": record.loads,
            "evictions": record.evictions,
            "mutations": record.mutations,
            "admitted": admitted,
            "shed": shed,
            "timed_out": timed_out,
            "rows_served": rows_served,
            "pending_rows": pending,
            "tuning_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": round(cache_hits / lookups, 4) if lookups else None,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        """Debug representation with tenant count, residency, and budget."""
        return (
            f"EngineManager(tenants={len(self._tenants)}, "
            f"resident={list(self.resident_tenants)}, "
            f"resident_rows={self.resident_rows}, "
            f"max_resident_rows={self.max_resident_rows})"
        )
