"""Sample-based per-bucket parameter tuning (paper Section 4.4).

LEMP chooses, for every bucket, (i) the focus-set size ``φ_b`` of the
coordinate-based retriever and (ii) the local-threshold switch point ``t_b``
below which the LENGTH scan is used instead.  As in the paper, both choices
come from a seeded sample of the call's queries: every sampled (query,
bucket) pair is priced under every configuration, and the cheapest total
wins.  The price is *counted* work weighted by per-host constants, not a
clock reading, so tuning is a pure function of the data, the thresholds
and the seed:

* a **LENGTH** pair costs :data:`LENGTH_PAIR_S` (its share of a grouped
  verify call) plus its prefix rows at the block-product rate
  (:func:`length_pair_costs`); one
  :meth:`~repro.core.retrievers.length.LengthRetriever.cutoffs` search
  gives the prefixes of all of a bucket's sampled pairs;
* a **COORD/INCR** pair costs its retriever's :class:`ScanCosts` — a fixed
  part per call, per bucket row and per focus coordinate, plus the
  sorted-list entries it scans — and ``r ×`` the candidates it keeps at
  :data:`VERIFY_ENTRY_S`.  The entries and candidates of every ``φ`` of
  the grid come from one nested scan per pair
  (:meth:`~repro.core.retrievers.coord.CoordRetriever.focus_counts`),
  because the focus set of a smaller ``φ`` is a prefix of the largest one's.

When LENGTH costs no more than the coordinate retriever's cheapest call on
every sampled pair of a bucket, the tuner decides ``t_b =``
:data:`SWITCH_ALL_LENGTH` without scanning, so no sorted list is built for
tuning.  The constants were measured with BLAS pinned to one thread on a
2-vCPU x86-64 host; ``tools/measure_tuner_costs.py`` re-measures them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.bucket import Bucket
from repro.core.retrievers.base import BucketRetriever
from repro.core.retrievers.length import BLOCK_ELEMENTS
from repro.core.thresholds import local_thresholds
from repro.core.vector_store import PreparedQueries
from repro.utils.rng import ensure_rng

#: Focus-set sizes evaluated by the tuner (the paper uses values 1–5).
DEFAULT_PHI_GRID = (1, 2, 3, 4, 5)

#: Number of sample queries per tuning run.
DEFAULT_SAMPLE_SIZE = 20

#: Switch point above every local threshold a pair can have: all pairs run LENGTH.
SWITCH_ALL_LENGTH = 1.01

#: Seconds per LENGTH pair: its share of the grouped verify call of its query block.
LENGTH_PAIR_S = 1.1e-6
#: Seconds per prefix row of a LENGTH pair in the bucket's f32 block screen...
LENGTH_ROW_S = 9e-10
#: ...plus this much per coordinate of that row...
LENGTH_ENTRY_S = 7e-12
#: ...plus this much per byte of the f32 prefix the block product reads and packs.  Every
#: query block re-reads the prefix, so a pair's share is its prefix bytes
#: over the block width; it only matters once a bucket outgrows the cache.
LENGTH_BYTE_S = 1.4e-10
#: Seconds per coordinate of a candidate a coordinate retriever keeps (its verification).
VERIFY_ENTRY_S = 6.5e-10


@dataclass(frozen=True)
class ScanCosts:
    """Counted-cost weights (seconds) of one coordinate retriever's calls."""

    #: Fixed part of a call: focus selection, feasible regions, keep test.
    pair_s: float
    #: Per bucket row: the CP array and the keep test span the whole bucket.
    row_s: float
    #: Per focus coordinate: its two binary searches and CP-array updates.
    coordinate_s: float
    #: Per sorted-list entry inside a scan range.
    entry_s: float


#: :class:`ScanCosts` of the tuned coordinate retrievers, by retriever name.
SCAN_COSTS = {
    "COORD": ScanCosts(pair_s=5e-5, row_s=2e-9, coordinate_s=1e-5, entry_s=2.5e-9),
    "INCR": ScanCosts(pair_s=1e-4, row_s=8e-9, coordinate_s=1.5e-5, entry_s=8e-9),
}


@dataclass
class TuningResult:
    """Per-bucket parameters selected by the tuner."""

    switch_thresholds: dict = field(default_factory=dict)
    per_bucket_phi: dict = field(default_factory=dict)
    seconds: float = 0.0


def combine_tuning(cached: dict, fresh: TuningResult | None) -> tuple[dict, dict]:
    """Merge cached per-bucket tuning entries with a fresh tuner result.

    ``cached`` maps a bucket index to a
    :class:`~repro.core.tuning_cache.BucketTuning` (``None`` fields mean the
    tuner made no decision for that bucket); ``fresh`` covers the buckets that
    were re-tuned this call, keyed the same way.  Returns the
    ``(per_bucket_phi, switch_thresholds)`` maps the selectors consume —
    buckets absent from both maps fall back to the selector defaults, exactly
    as with an uncached tuner run.
    """
    phi_map: dict = {}
    switch_map: dict = {}
    for index, entry in cached.items():
        if entry.phi is not None:
            phi_map[index] = int(entry.phi)
        if entry.switch is not None:
            switch_map[index] = float(entry.switch)
    if fresh is not None:
        phi_map.update(fresh.per_bucket_phi)
        switch_map.update(fresh.switch_thresholds)
    return phi_map, switch_map


def tune_phi(
    buckets: list[Bucket],
    queries: PreparedQueries,
    query_thetas: np.ndarray,
    coord_retriever: BucketRetriever,
    phi_grid=DEFAULT_PHI_GRID,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed=0,
) -> TuningResult:
    """Choose a per-bucket focus-set size for a pure coordinate-based retriever."""
    return _tune(
        buckets,
        queries,
        query_thetas,
        length_retriever=None,
        coord_retriever=coord_retriever,
        phi_grid=phi_grid,
        sample_size=sample_size,
        seed=seed,
    )


def tune_mixed(
    buckets: list[Bucket],
    queries: PreparedQueries,
    query_thetas: np.ndarray,
    length_retriever: BucketRetriever,
    coord_retriever: BucketRetriever,
    phi_grid=DEFAULT_PHI_GRID,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed=0,
) -> TuningResult:
    """Choose per-bucket ``t_b`` and ``φ_b`` for a mixed LENGTH/coordinate method."""
    return _tune(
        buckets,
        queries,
        query_thetas,
        length_retriever=length_retriever,
        coord_retriever=coord_retriever,
        phi_grid=phi_grid,
        sample_size=sample_size,
        seed=seed,
    )


def _tune(
    buckets,
    queries,
    query_thetas,
    length_retriever,
    coord_retriever,
    phi_grid,
    sample_size,
    seed,
) -> TuningResult:
    rng = ensure_rng(seed)
    result = TuningResult()
    started = time.perf_counter()

    query_thetas = np.asarray(query_thetas, dtype=np.float64)
    if query_thetas.ndim == 0:
        query_thetas = np.full(queries.size, float(query_thetas))
    if queries.size == 0:
        result.seconds = time.perf_counter() - started
        return result

    sample_count = min(sample_size, queries.size)
    sample_positions = rng.choice(queries.size, size=sample_count, replace=False)
    sample_thetas = query_thetas[sample_positions]
    sample_norms = queries.norms[sample_positions]
    rank = queries.rank
    phi_grid = list(phi_grid)
    scan = SCAN_COSTS[coord_retriever.name]

    # The local thresholds of every (bucket, sampled query) pair at once;
    # buckets no sampled query reaches are skipped without a Python step.
    longest = np.fromiter((bucket.max_length for bucket in buckets), dtype=np.float64,
                          count=len(buckets))
    with np.errstate(over="ignore"):  # a quotient past the float range is ±inf
        all_theta_bs = local_thresholds(sample_thetas, sample_norms, longest[:, None])
    for number in np.flatnonzero((all_theta_bs <= 1.0).any(axis=1)).tolist():
        bucket = buckets[number]
        # The sampled queries that are not pruned for this bucket.
        theta_bs = all_theta_bs[number]
        active = np.nonzero(theta_bs <= 1.0)[0]
        positions = sample_positions[active]
        thetas, norms, theta_bs = sample_thetas[active], sample_norms[active], theta_bs[active]

        fixed = scan.pair_s + bucket.size * scan.row_s
        floor = fixed + min(phi_grid) * scan.coordinate_s
        if length_retriever is not None:
            length_costs = length_pair_costs(length_retriever.cutoffs(bucket, thetas, norms), rank)
            if np.all(length_costs <= floor):
                # No coordinate call can undercut LENGTH on any sampled pair:
                # every pair runs LENGTH, and no sorted list is built.
                result.switch_thresholds[bucket.index] = SWITCH_ALL_LENGTH
                continue

        # Counted cost of each (pair, φ): one nested scan per pair prices the whole grid.
        coord_costs = np.empty((active.size, len(phi_grid)))
        for pair, position in enumerate(positions.tolist()):
            scanned, kept = coord_retriever.focus_counts(
                bucket, queries.directions[position], float(norms[pair]), float(thetas[pair]),
                float(theta_bs[pair]), phi_grid)
            coord_costs[pair] = scanned * scan.entry_s + kept * (rank * VERIFY_ENTRY_S)
        coord_costs += fixed + np.asarray(phi_grid) * scan.coordinate_s
        best = int(np.argmin(coord_costs.sum(axis=0)))
        result.per_bucket_phi[bucket.index] = int(phi_grid[best])
        if length_retriever is None:
            continue

        # Candidate switch points: below t_b LENGTH runs, at or above it the
        # coordinate method runs.  Evaluate the sample cost of each candidate.
        coord_costs = coord_costs[:, best]
        candidates = [0.0, *sorted(set(theta_bs.tolist())), SWITCH_ALL_LENGTH]
        best_threshold, best_cost = 0.0, np.inf
        for switch in candidates:
            below = theta_bs < switch
            cost = float(length_costs[below].sum() + coord_costs[~below].sum())
            if cost < best_cost:
                best_cost = cost
                best_threshold = switch
        result.switch_thresholds[bucket.index] = float(best_threshold)

    result.seconds = time.perf_counter() - started
    return result


def length_pair_costs(cutoffs: np.ndarray, rank: int) -> np.ndarray:
    """Counted cost of LENGTH pairs with these prefix lengths, screened by f32 block products.

    Blocks are as wide as :func:`~repro.core.retrievers.length.score_length_pairs`
    makes them for the longest prefix.
    """
    width = max(1, BLOCK_ELEMENTS // max(1, int(cutoffs.max())))
    streamed = rank * 4 / width  # f32 bytes of a prefix row, shared by a block's pairs
    per_row = LENGTH_ROW_S + rank * LENGTH_ENTRY_S + streamed * LENGTH_BYTE_S
    return LENGTH_PAIR_S + cutoffs * per_row
