"""Batch-persistent memoisation of LEMP's tuning artifacts.

LEMP's speed rests on two per-call side effects that are expensive to
recompute: the sample-based per-bucket tuning of Section 4.4 (the focus-set
size ``phi_b`` and the LENGTH/coordinate switch point ``t_b``), and the
lazily built per-bucket indexes of LEMP-L2AP / LEMP-BLSH (the L2AP index
bakes in the local threshold of the query that built it; the BLSH signature
filter is threshold-free).  When the
:class:`~repro.engine.facade.RetrievalEngine` splits a workload into chunks,
both side effects used to be paid once *per chunk*, multiplying setup cost by
the batch count.

:class:`TuningCache` turns that state into a first-class, invalidation-aware
artifact:

* **Tuned selector decisions** are stored per bucket, keyed by the problem,
  the calling parameter (theta or k) and the tuner's sample seed.  A cached
  decision is only applied to a bucket whose contents are byte-identical to
  the bucket it was tuned on, which is established through a
  :class:`BucketFingerprint` — a digest of the bucket's slice of the sorted
  store (lengths and per-row direction hashes, see
  :func:`~repro.core.vector_store.row_hashes`) plus
  an *epoch* counter that ``partial_fit`` / ``remove`` bump for exactly the
  rebuilt buckets.  Buckets a mutation preserves keep their entries.
* **Per-bucket index reuse**: the L2AP reduced index is governed by the
  lower-bound rule enforced in the retriever itself — an index built for
  threshold ``theta_b`` may serve any query whose local threshold is at
  least ``theta_b`` — while the BLSH signature filter carries no threshold
  state (its minimum-match base is a per-call pure function of the query's
  own ``theta_b``) and is reused unconditionally.  The cache records build /
  reuse counters so the saving is observable.

Reuse is exactness-safe by construction: tuned parameters only change the
candidate sets, and every candidate is verified exactly, so results are
bit-identical whether tuning was fresh or cached.

The cache's entries survive :meth:`~repro.engine.facade.RetrievalEngine.save`
/ ``load`` round trips — see :meth:`TuningCache.export_state` — because the
fingerprints are content-derived and the per-bucket epochs are persisted with
the index state.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Cache keys are ``(problem, parameter, sample_seed)`` tuples, e.g.
#: ``("above_theta", 0.75, 0)`` or ``("row_top_k", 10.0, 0)``.
CacheKey = tuple


class BucketFingerprint(NamedTuple):
    """Content identity of one bucket.

    ``epoch`` is the index-mutation epoch the bucket was created in (buckets
    preserved across :meth:`~repro.core.lemp.Lemp.partial_fit` /
    :meth:`~repro.core.lemp.Lemp.remove` keep their original epoch), ``size``
    its number of probes, and ``digest`` a 128-bit BLAKE2 digest over the
    bucket's slice of the length-sorted store: the lengths and the per-row
    direction hashes of :func:`~repro.core.vector_store.row_hashes`, so
    buckets of distinct vectors that merely share lengths (unit-norm data!)
    do not collide.  Equal fingerprints mean equal lengths and (up to a
    128-bit row-hash collision) equal directions; a collision could only
    steer tuning, never a result.  A named tuple, so a cache lookup hashes
    and compares it in C: one dict probe per bucket.
    """

    epoch: int
    size: int
    digest: str


def fingerprint_content(lengths: np.ndarray, hashes: np.ndarray,
                        epoch: int) -> BucketFingerprint:
    """Fingerprint a bucket from its length and row-hash slices and creation epoch."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(np.ascontiguousarray(lengths, dtype=np.float64))
    hasher.update(np.ascontiguousarray(hashes, dtype=np.uint64))
    return BucketFingerprint(int(epoch), int(lengths.shape[0]), hasher.hexdigest())


@dataclass
class BucketTuning:
    """Tuner decision cached for one bucket.

    ``None`` fields mean the tuner examined the bucket but made no decision
    (no sampled query was active there), in which case the selector falls
    back to its defaults — recording this avoids re-tuning such buckets on
    every warm call.
    """

    phi: int | None = None
    switch: float | None = None


class TuningCache:
    """Memoises per-bucket tuning artifacts across retrieval calls.

    One instance lives on each :class:`~repro.core.lemp.Lemp` retriever.  The
    cache never changes *what* is retrieved — only how often the sample-based
    tuner and the threshold-dependent index builders run.

    Attributes
    ----------
    enabled:
        When ``False`` every lookup misses and nothing is stored, restoring
        the tune-per-call behaviour (useful for A/B benchmarks).
    hits, misses:
        Selector-granularity counters: one hit per retrieval call whose every
        bucket had a cached tuning entry, one miss per call that had to run
        the tuner (possibly on a subset of buckets).
    index_builds, index_reuses:
        Build / reuse counters for the threshold-derived L2AP and BLSH bucket
        indexes.
    """

    def __init__(self, enabled: bool = True) -> None:
        """Create an empty cache; pass ``enabled=False`` to disable reuse."""
        self.enabled = bool(enabled)
        self.hits = 0
        self.misses = 0
        self.index_builds = 0
        self.index_reuses = 0
        self._entries: dict[CacheKey, dict[BucketFingerprint, BucketTuning]] = {}
        # One cache is shared by every worker view of a retriever (see
        # Retriever.worker_view), so the counters are guarded against
        # concurrent increments; entry reads/writes are per-key dict
        # operations that are atomic under the GIL and deterministic in
        # content (concurrent stores write identical tuner output).
        self._counter_lock = threading.Lock()

    # ------------------------------------------------------------ introspection

    def __len__(self) -> int:
        """Total number of cached per-bucket tuning entries across all keys."""
        return sum(len(entries) for entries in self._entries.values())

    @property
    def num_keys(self) -> int:
        """Number of distinct ``(problem, parameter, seed)`` keys cached."""
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        """Debug representation with entry and counter summary."""
        return (
            f"TuningCache(enabled={self.enabled}, keys={self.num_keys}, "
            f"entries={len(self)}, hits={self.hits}, misses={self.misses})"
        )

    # ------------------------------------------------------------------ lookup

    def lookup(self, key: CacheKey, buckets) -> tuple[dict[int, BucketTuning], list]:
        """Split ``buckets`` into cached and stale for ``key``.

        Returns ``(cached, stale)`` where ``cached`` maps each covered
        bucket's *current* index to its :class:`BucketTuning` (bucket indexes
        may have shifted since the entry was stored; the fingerprint, not the
        index, is the identity) and ``stale`` lists the buckets that need a
        fresh tuner run.  With the cache disabled everything is stale.
        """
        if not self.enabled:
            return {}, list(buckets)
        entries = self._entries.get(key)
        if not entries:
            return {}, list(buckets)
        cached: dict[int, BucketTuning] = {}
        stale = []
        probe = entries.get
        for bucket in buckets:
            entry = probe(bucket.fingerprint())
            if entry is None:
                stale.append(bucket)
            else:
                cached[bucket.index] = entry
        return cached, stale

    def store(self, key: CacheKey, buckets, tuning) -> None:
        """Record the tuner's decisions for ``buckets`` under ``key``.

        ``tuning`` is a :class:`~repro.core.tuner.TuningResult`; buckets the
        tuner skipped get an empty :class:`BucketTuning` so they count as
        covered on the next lookup.
        """
        if not self.enabled:
            return
        entries = self._entries.setdefault(key, {})
        for bucket in buckets:
            entries[bucket.fingerprint()] = BucketTuning(
                phi=tuning.per_bucket_phi.get(bucket.index),
                switch=tuning.switch_thresholds.get(bucket.index),
            )

    def record(self, hit: bool) -> None:
        """Count one selector-level cache hit or miss (thread-safe)."""
        with self._counter_lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def record_index_build(self) -> None:
        """Count one threshold-derived bucket index construction (thread-safe)."""
        with self._counter_lock:
            self.index_builds += 1

    def record_index_reuse(self) -> None:
        """Count one guarded reuse of a threshold-derived bucket index (thread-safe)."""
        with self._counter_lock:
            self.index_reuses += 1

    # ------------------------------------------------------------- invalidation

    def discard(self, fingerprints: set[BucketFingerprint]) -> None:
        """Drop the entries of buckets that no longer exist.

        ``partial_fit`` / ``remove`` call it with the fingerprints of the
        buckets they replaced, so the cost is the replaced buckets times the
        cached keys.  Untouched buckets keep their (still valid) entries;
        the replacements carry the just-bumped epoch, so no entry can match
        them.
        """
        for key in list(self._entries):
            entries = self._entries[key]
            for fingerprint in fingerprints:
                entries.pop(fingerprint, None)
            if not entries:
                del self._entries[key]

    def clear(self) -> None:
        """Drop every cached entry (counters are kept; they are cumulative)."""
        self._entries.clear()

    # -------------------------------------------------------------- persistence

    def export_state(self) -> list[dict]:
        """Serialise the cached entries to a JSON-compatible structure.

        Counters are transient and not exported.  The structure round-trips
        through :meth:`restore_state`; fingerprints keep their epochs, so a
        reloaded index (which restores per-bucket epochs from its saved
        state) hits the cache immediately.
        """
        exported = []
        for key, entries in self._entries.items():
            problem, parameter, seed = key
            exported.append(
                {
                    "problem": str(problem),
                    "parameter": float(parameter),
                    "seed": None if seed is None else int(seed),
                    "entries": [
                        {
                            "epoch": fingerprint.epoch,
                            "size": fingerprint.size,
                            "digest": fingerprint.digest,
                            "phi": entry.phi,
                            "switch": entry.switch,
                        }
                        for fingerprint, entry in entries.items()
                    ],
                }
            )
        return exported

    def restore_state(self, state: list[dict]) -> None:
        """Replace the cached entries with a structure from :meth:`export_state`."""
        self._entries = {}
        for record in state:
            seed = record.get("seed")
            key = (
                str(record["problem"]),
                float(record["parameter"]),
                None if seed is None else int(seed),
            )
            entries: dict[BucketFingerprint, BucketTuning] = {}
            for item in record.get("entries", []):
                fingerprint = BucketFingerprint(
                    int(item["epoch"]), int(item["size"]), str(item["digest"])
                )
                phi = item.get("phi")
                switch = item.get("switch")
                entries[fingerprint] = BucketTuning(
                    phi=None if phi is None else int(phi),
                    switch=None if switch is None else float(switch),
                )
            if entries:
                self._entries[key] = entries
