"""L2AP as a bucket retrieval algorithm (LEMP-L2AP, paper Sections 5 and 6.3).

A separate L2AP-style index (see :mod:`repro.similarity.l2ap`) is built lazily
for each bucket.  As in the paper, the index-reduction threshold is fixed when
the index is built — at that point the query being processed is the longest
remaining one, so its local threshold ``θ_b(q_max)`` is a valid lower bound
for all later queries of an Above-θ run.  For Row-Top-k the running threshold
θ′ is query-specific, so index reduction is disabled and the index degenerates
to a full inverted index (still correct, less index pruning).

Across calls the index is reused under the *lower-bound rule*: an index
reduced for threshold ``b`` serves any query whose effective threshold is at
least ``b``.  When a query arrives with a smaller threshold the index is
rebuilt with that smaller base (and then serves both).  This replaces the old
drop-everything-per-call invalidation, so a chunked engine call — or repeated
calls at the same or a higher θ — builds each bucket's index exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.core.bucket import Bucket
from repro.core.retrievers.base import BucketRetriever
from repro.similarity.l2ap import L2APIndex

#: Key under which the per-bucket L2AP index is stored on the bucket.
INDEX_KEY = "l2ap"


class L2APBucketRetriever(BucketRetriever):
    """Prefix-norm inverted-index candidate generation inside one bucket."""

    name = "L2AP"

    def __init__(self, use_index_reduction: bool = True, cache=None) -> None:
        self.use_index_reduction = use_index_reduction
        #: Optional :class:`~repro.core.tuning_cache.TuningCache` receiving
        #: build/reuse counters (the index itself lives on the bucket).
        self.cache = cache

    def _index(self, bucket: Bucket, theta_b: float) -> L2APIndex:
        base = theta_b if (self.use_index_reduction and 0.0 < theta_b <= 1.0) else 0.0
        index = bucket.peek_index(INDEX_KEY)
        if index is not None and index.base_threshold <= base:
            # Lower-bound rule: the cached reduction under-approximates the
            # current threshold, so every candidate it can produce is kept.
            if self.cache is not None:
                self.cache.record_index_reuse()
            return index
        index = bucket.set_index(INDEX_KEY, L2APIndex(bucket.directions, base_threshold=base))
        if self.cache is not None:
            self.cache.record_index_build()
        return index

    def retrieve(
        self,
        bucket: Bucket,
        query_direction: np.ndarray,
        query_norm: float,
        theta: float,
        theta_b: float,
        phi: int = 0,
    ) -> np.ndarray:
        if not np.isfinite(theta_b) or theta_b <= 0.0 or theta <= 0.0 or query_norm <= 0.0:
            return self.all_candidates(bucket)
        index = self._index(bucket, theta_b)
        lengths = bucket.lengths
        with np.errstate(divide="ignore"):
            probe_thresholds = np.where(
                lengths > 0.0, theta / (query_norm * np.where(lengths > 0.0, lengths, 1.0)), np.inf
            )
        lids, _ = index.candidates(query_direction, probe_thresholds)
        return lids.astype(np.intp)
